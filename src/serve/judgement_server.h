#ifndef HISRECT_SERVE_JUDGEMENT_SERVER_H_
#define HISRECT_SERVE_JUDGEMENT_SERVER_H_

// Online co-location judgement serving (DESIGN.md §10, failure model §13).
//
// A JudgementServer wraps a fitted HisRectModel behind a long-lived,
// thread-safe submission API: clients Submit (profile, profile, Δt)
// requests from any thread and receive a Ticket — a std::future of the
// response plus a cancel handle. A dedicated batcher thread is
// work-conserving: it forms a batch as soon as a request is pending, and
// requests that arrive while a batch is scoring join the next one, up to
// `batch_size` (an opt-in `max_wait_us` window instead holds a batch open
// for company). Up to one task per pool worker pulls the batch's requests
// from a shared cursor — a one-request batch scores inline on the batcher
// thread — through encoder-cache handles and ScorePairEncoded, and each
// request resolves the moment its own score lands. Served scores are
// bitwise-identical to the offline PairEvaluator path on the same pairs.
//
// Robustness contracts layered on top of that core:
//  - Priority admission: each request carries a Priority class
//    (kInteractive > kBatch) with its own queue bound (`max_queue` /
//    `max_batch_queue`); Submit sheds the overflowing class with
//    kUnavailable, and batches flush in strict priority order, so overload
//    starves batch traffic first and interactive latency stays bounded.
//  - Deadlines: a request may carry `timeout_us`; the batcher expires
//    overdue requests with kDeadlineExceeded when it forms a batch — never
//    mid-batch, so a request that makes it into a batch is always scored
//    and served scores stay bitwise-identical to offline eval.
//  - Cancellation: Ticket::Cancel() removes a still-queued request and
//    resolves its future with kCancelled.
//  - Hot swap: the model is held by shared_ptr and can be replaced
//    atomically via SwapModel (normally driven by serve::ModelRegistry);
//    a batch snapshots (model, version) when it is formed, so in-flight
//    batches finish on the old version and every Response names the exact
//    version that scored it.
//
// Every admitted request's future resolves exactly once — with a scored
// Response or with a kDeadlineExceeded / kCancelled / kInternal status.
// Shutdown() stops admission, drains every already-admitted request, and
// joins the batcher; no admitted future is ever left hanging.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/hisrect_model.h"
#include "data/types.h"
#include "obs/metrics.h"
#include "serve/stage_trace.h"
#include "util/status.h"

namespace hisrect::serve {

/// Admission classes, strongest first. Interactive requests are admitted
/// against their own bound and always flushed before batch-class requests;
/// under overload the batch class is shed (kUnavailable) and starved first.
enum class Priority {
  kInteractive = 0,
  kBatch = 1,
};
inline constexpr size_t kNumPriorities = 2;

struct ServeOptions {
  /// Most requests one micro-batch takes; the rest wait for the next batch.
  size_t batch_size = 32;
  /// Opt-in batch window, in microseconds. 0 (the default) forms a batch as
  /// soon as a request is pending. Above 0, a batch opens at the first
  /// pending request and waits until `batch_size` are pending or this much
  /// time has passed, whichever comes first.
  uint64_t max_wait_us = 0;
  /// Admission bound for Priority::kInteractive: Submit rejects with
  /// kUnavailable once this many interactive requests are pending.
  size_t max_queue = 1024;
  /// Admission bound for Priority::kBatch. Size it smaller than `max_queue`
  /// so overload sheds batch traffic first.
  size_t max_batch_queue = 1024;

  // --- Introspection (DESIGN.md §14). All off by default; none of it
  // changes served scores (determinism contract, serve_test.cc).

  /// Stage-trace ring capacity (requests). 0 disables per-request stage
  /// tracing entirely — no clock reads beyond the existing latency stamp.
  size_t stage_trace_capacity = 0;
  /// Requests slower than this (seconds, admission to resolution) are also
  /// kept as full SlowExemplars. Only meaningful with tracing enabled.
  double slow_trace_threshold_s = 0.050;
  /// How many slow exemplars to retain (the slowest win).
  size_t slow_trace_capacity = 16;
  /// Sliding window (seconds) for live per-priority latency percentiles
  /// (window_latency(), /statusz). 0 disables the windowed histograms.
  double stats_window_s = 0.0;
  /// Clock for the windowed histograms, monotonic nanoseconds; nullptr =
  /// std::chrono::steady_clock. Tests inject one to make decay
  /// deterministic.
  obs::WindowedHistogram::Clock window_clock = nullptr;
};

/// One online query: are the two profile owners co-located within
/// `delta_t` seconds? `delta_t` rides along for logging/auditing — the
/// judge itself reads the profiles (the pairing window is a dataset-build
/// concern, DESIGN.md §1).
struct JudgementRequest {
  data::Profile a;
  data::Profile b;
  data::Timestamp delta_t = 3600;
  /// Admission class (see Priority).
  Priority priority = Priority::kInteractive;
  /// Per-request deadline, in microseconds from admission; 0 means none.
  /// An overdue request is expired with kDeadlineExceeded when the batcher
  /// next forms a batch — never after it entered a batch.
  uint64_t timeout_us = 0;
};

/// Tie rule shared with offline eval: `>= 0.5` judges co-located, matching
/// eval::ConfusionAtThreshold / the ROC sweep (DESIGN.md §5).
inline bool CoLocatedScore(double score) { return score >= 0.5; }

struct Judgement {
  double score = 0.0;       // p_co in [0, 1]
  bool co_located = false;  // CoLocatedScore(score)
};

/// What a completed (scored) request resolves to.
struct Response {
  Judgement judgement;
  /// The model version that scored this request (SwapModel / ModelRegistry
  /// versioning; 1 for a never-swapped server). Every response is
  /// attributable to exactly one version.
  uint64_t model_version = 0;
  /// Admission-to-completion latency as measured by the server.
  double latency_seconds = 0.0;
};

class JudgementServer;

/// A submitted request: the response future plus a cancel handle. Movable,
/// not copyable; must not outlive its server.
class Ticket {
 public:
  Ticket() = default;

  /// Resolves when the request is scored (ok Response), expired
  /// (kDeadlineExceeded), cancelled (kCancelled), or aborted (kInternal).
  std::future<util::Result<Response>>& future() { return future_; }

  /// Cancels the request if it is still queued: the future resolves with
  /// kCancelled and true is returned. Returns false when the request
  /// already entered a batch (it will be scored) or already resolved.
  /// Thread-safe; safe concurrently with Shutdown.
  bool Cancel();

  /// True for a ticket obtained from a successful Submit.
  bool valid() const { return server_ != nullptr; }

 private:
  friend class JudgementServer;
  std::future<util::Result<Response>> future_;
  JudgementServer* server_ = nullptr;
  uint64_t id_ = 0;
};

class JudgementServer {
 public:
  /// `model` must be fitted and outlive the server.
  JudgementServer(const core::HisRectModel* model, ServeOptions options = {});

  /// Owning variant: the server keeps the model alive itself.
  JudgementServer(std::unique_ptr<const core::HisRectModel> model,
                  ServeOptions options = {});

  /// Shared variant (hot-swap entry point): the server holds a reference
  /// until SwapModel replaces it. `initial_version` names this model in
  /// Response::model_version.
  JudgementServer(std::shared_ptr<const core::HisRectModel> model,
                  ServeOptions options = {}, uint64_t initial_version = 1);

  /// Shuts down (draining admitted requests) if not already shut down.
  ~JudgementServer();

  JudgementServer(const JudgementServer&) = delete;
  JudgementServer& operator=(const JudgementServer&) = delete;

  /// Admits the request and returns a Ticket, or fails fast: kUnavailable
  /// when the request's priority class is at its queue bound (overload),
  /// kFailedPrecondition after Shutdown. Thread-safe; never blocks on
  /// scoring.
  util::Result<Ticket> Submit(JudgementRequest request);

  /// Atomically replaces the served model. Batches already formed finish on
  /// the version they snapshotted; every batch formed afterwards scores on
  /// `model` and stamps `version` into its responses. The retired
  /// shared_ptr is released outside the server lock. No-op when (model,
  /// version) already is the published pair. Thread-safe, including
  /// concurrently with Submit and Shutdown.
  void SwapModel(std::shared_ptr<const core::HisRectModel> model,
                 uint64_t version);

  /// Stops admission, drains every admitted request, joins the batcher.
  /// Idempotent; safe to call concurrently with Submit (late submissions
  /// are rejected, never half-admitted).
  void Shutdown();

  /// False once Shutdown has begun.
  bool accepting() const;

  /// Pending (admitted, not yet scored) requests right now, both classes.
  size_t queue_depth() const;

  /// Pending requests per priority class (indexed by Priority).
  std::array<size_t, kNumPriorities> queue_depths() const;

  /// The stage-trace buffer, or nullptr when `stage_trace_capacity` is 0.
  /// Valid for the server's lifetime.
  const StageTraceBuffer* stage_traces() const { return traces_.get(); }

  /// Windowed latency histogram for one priority class (scored requests
  /// only), or nullptr when `stats_window_s` is 0.
  const obs::WindowedHistogram* window_latency(Priority priority) const {
    return window_hist_[static_cast<size_t>(priority)].get();
  }

  /// The currently published model version.
  uint64_t model_version() const;

  /// The currently published model (a swap may retire it at any time; the
  /// returned handle keeps it alive).
  std::shared_ptr<const core::HisRectModel> model() const;

  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;  // scored; counted before its promise is set
    uint64_t batches = 0;    // counted at formation
    uint64_t cancelled = 0;  // resolved kCancelled via Ticket::Cancel
    uint64_t expired = 0;    // resolved kDeadlineExceeded at batch formation
    uint64_t aborted = 0;    // resolved kInternal (serve.score_abort)
    uint64_t swaps = 0;      // SwapModel publications after the first
  };
  Stats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  friend class Ticket;

  struct Pending {
    JudgementRequest request;
    std::promise<util::Result<Response>> promise;
    std::chrono::steady_clock::time_point admitted_at;
    /// Absolute deadline; time_point::max() when the request has none.
    std::chrono::steady_clock::time_point deadline;
    uint64_t id = 0;
  };

  void BatchLoop();
  void ProcessBatch(std::vector<Pending>& batch,
                    const core::HisRectModel& model, uint64_t version,
                    std::chrono::steady_clock::time_point formed_at);
  /// Scores one request of a formed batch, then counts, traces and resolves
  /// it. Runs on whichever thread pulled the request.
  void ScoreAndResolve(Pending& pending, const core::HisRectModel& model,
                       uint64_t version,
                       std::chrono::steady_clock::time_point formed_at);
  bool Cancel(uint64_t id);
  size_t PendingCountLocked() const;
  /// Records a trace for a request resolved without scoring (expired /
  /// cancelled / aborted). No-op when tracing is disabled.
  void TraceUnscored(const Pending& pending, StageTrace::Outcome outcome,
                     std::chrono::steady_clock::time_point dropped_at,
                     std::chrono::steady_clock::time_point resolved_at);

  ServeOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  /// One queue per Priority, drained in strict priority order.
  std::deque<Pending> queues_[kNumPriorities];
  std::shared_ptr<const core::HisRectModel> model_;
  uint64_t model_version_ = 1;
  uint64_t next_id_ = 1;
  bool stopping_ = false;
  Stats stats_;
  /// Created in the constructor, immutable after; both have internal locks.
  std::unique_ptr<StageTraceBuffer> traces_;
  std::unique_ptr<obs::WindowedHistogram> window_hist_[kNumPriorities];
  std::thread batcher_;
};

}  // namespace hisrect::serve

#endif  // HISRECT_SERVE_JUDGEMENT_SERVER_H_
