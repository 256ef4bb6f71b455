#ifndef HISRECT_SERVE_STAGE_TRACE_H_
#define HISRECT_SERVE_STAGE_TRACE_H_

// Per-request stage tracing for the serving path (DESIGN.md §14).
//
// Every admitted request is stamped with the server's monotonically
// assigned request id; when it resolves, the server records where its wall
// time went as a StageTrace. The stage durations telescope over shared
// timestamps — queue ends exactly where batch formation begins, encode ends
// where scoring begins, and so on — so for a scored request
//
//   queue + batch + encode + score + resolve == total == latency_seconds
//
// exactly (up to double rounding), which /tracez, bench_serving, and
// tests/admin_server_test.cc all assert. Requests resolved without scoring
// (expired / cancelled / aborted) carry the stages they actually reached.
//
// Traces land in a lock-striped ring buffer: recording takes one short
// stripe lock and never allocates after construction. The stripe is picked
// by the trace's completion sequence number, so consecutive records land in
// different stripes: concurrent recorders rarely contend, and the buffer
// keeps the newest `capacity` traces even when one thread records them all.
// Requests slower than a configurable threshold are additionally retained
// as SlowExemplars — the full request identity plus the per-stage
// breakdown — in a small keep-the-slowest side buffer, so the operator can
// still see *which* request was slow long after its trace rotated out.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/types.h"

namespace hisrect::serve {

/// Stage breakdown of one resolved request. Durations in seconds.
struct StageTrace {
  enum class Outcome : uint8_t {
    kScored = 0,
    kExpired = 1,
    kCancelled = 2,
    kAborted = 3,
  };

  uint64_t request_id = 0;
  uint8_t priority = 0;  // static_cast<uint8_t>(serve::Priority)
  Outcome outcome = Outcome::kScored;
  uint64_t model_version = 0;
  data::UserId uid_a = 0;
  data::UserId uid_b = 0;

  double queue_seconds = 0.0;    // admission -> batch formation (or drop)
  double batch_seconds = 0.0;    // batch formation -> this request's encode
  double encode_seconds = 0.0;   // profile encoding, both sides
  double score_seconds = 0.0;    // judge scoring
  double resolve_seconds = 0.0;  // stage end -> promise fulfilled
  /// Admission -> resolution; equals Response::latency_seconds for scored
  /// requests.
  double total_seconds = 0.0;
  double score = 0.0;  // p_co for scored requests

  /// Completion-order stamp assigned by the buffer (newest = largest).
  uint64_t sequence = 0;

  double StageSum() const {
    return queue_seconds + batch_seconds + encode_seconds + score_seconds +
           resolve_seconds;
  }
};

const char* StageTraceOutcomeName(StageTrace::Outcome outcome);

/// A slow request kept in full: the trace plus enough of the request to
/// reproduce it (profile owners, pairing window, deadline).
struct SlowExemplar {
  StageTrace trace;
  data::Timestamp delta_t = 0;
  uint64_t timeout_us = 0;
};

class StageTraceBuffer {
 public:
  /// `capacity` traces total (rounded up to a multiple of the stripe
  /// count); requests with total_seconds >= `slow_threshold_seconds` are
  /// also retained among the `slow_capacity` slowest exemplars.
  StageTraceBuffer(size_t capacity, double slow_threshold_seconds,
                   size_t slow_capacity);

  StageTraceBuffer(const StageTraceBuffer&) = delete;
  StageTraceBuffer& operator=(const StageTraceBuffer&) = delete;

  /// Stamps `trace.sequence` and appends it to stripe
  /// `sequence % kStripes`, overwriting the oldest entry once that stripe
  /// ring is full. No allocation.
  void Record(StageTrace trace);

  /// Retains `exemplar` if it beats (or fits beside) the current slowest
  /// set. Callers should check `slow_threshold_seconds()` first to avoid
  /// building the exemplar on the fast path.
  void RecordSlow(SlowExemplar exemplar);

  /// Up to `max_traces` most recently recorded traces, newest first.
  std::vector<StageTrace> Recent(size_t max_traces) const;

  /// Retained slow exemplars, slowest first.
  std::vector<SlowExemplar> SlowExemplars() const;

  /// Traces recorded since construction (recorded - capacity have been
  /// overwritten, at most).
  uint64_t recorded() const;

  size_t capacity() const { return capacity_; }
  double slow_threshold_seconds() const { return slow_threshold_; }

 private:
  static constexpr size_t kStripes = 8;

  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::vector<StageTrace> ring;  // fixed size after construction
    size_t next = 0;
    size_t filled = 0;
    uint64_t recorded = 0;
  };

  size_t capacity_;
  double slow_threshold_;
  size_t slow_capacity_;
  std::atomic<uint64_t> sequence_{0};
  Stripe stripes_[kStripes];
  mutable std::mutex slow_mutex_;
  std::vector<SlowExemplar> slow_;  // sorted slowest first
};

}  // namespace hisrect::serve

#endif  // HISRECT_SERVE_STAGE_TRACE_H_
