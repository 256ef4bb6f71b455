#ifndef HISRECT_OBS_METRICS_H_
#define HISRECT_OBS_METRICS_H_

// Lock-cheap metrics registry.
//
// Handles (Counter / Gauge / Histogram) are resolved once by name — typically
// into a function-local static pointer at the instrumentation site — and live
// forever; the registry never frees them, so a cached pointer is always safe
// to update from any thread. Updates go to one of kMetricStripes
// cacheline-aligned atomic slots picked by util::ThisThreadIndex(), so a hot
// path pays ~one uncontended relaxed atomic add and no allocation. Scrape()
// merges the stripes under the registration mutex and returns a snapshot;
// scraping concurrently with updates is race-free (atomic loads) but the
// snapshot is only guaranteed exact for updates that happened-before the
// scrape.
//
// This core is header-only on purpose: src/util and src/nn instrument their
// hot paths by including this header without linking against hisrect_obs,
// which would otherwise create a util <-> obs dependency cycle. File export
// (WriteMetricsJsonFile) needs util I/O and lives in metrics.cc inside the
// hisrect_obs library.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/thread_id.h"

namespace hisrect::obs {

inline constexpr std::size_t kMetricStripes = 16;

namespace internal {

struct alignas(64) Int64Stripe {
  std::atomic<int64_t> value{0};
};

struct alignas(64) HistogramStripe {
  // counts[i] sized num_buckets at construction; sum accumulates observed
  // values for mean reporting.
  std::unique_ptr<std::atomic<uint64_t>[]> counts;
  std::atomic<double> sum{0.0};
};

inline std::size_t StripeIndex() {
  return util::ThisThreadIndex() % kMetricStripes;
}

// fetch_add on atomic<double> is C++20-library-dependent; a relaxed CAS loop
// is portable and the stripe is rarely contended.
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// Monotonically increasing sum of int64 deltas.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment() { Add(1); }
  void Add(int64_t delta) {
    stripes_[internal::StripeIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

  void ResetForTest() {
    for (auto& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::string name_;
  internal::Int64Stripe stripes_[kMetricStripes];
};

/// Current int64 level. Set() suits a single logical writer (concurrent
/// setters race benignly to "some written value"); Add() suits many writers
/// that each own a share of the level, e.g. every server's pending count.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  void ResetForTest() { Set(0); }

 private:
  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over doubles. With boundaries b_0 < b_1 < ... <
/// b_{k-1} there are k+1 buckets with half-open ranges:
///   bucket 0:   (-inf, b_0)
///   bucket i:   [b_{i-1}, b_i)      for 1 <= i <= k-1
///   bucket k:   [b_{k-1}, +inf)
/// i.e. every bucket is closed at its lower boundary and open at its upper
/// boundary; a value exactly equal to a boundary lands in the bucket above it.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> boundaries)
      : name_(std::move(name)), boundaries_(std::move(boundaries)) {
    for (auto& stripe : stripes_) {
      stripe.counts =
          std::make_unique<std::atomic<uint64_t>[]>(boundaries_.size() + 1);
      for (std::size_t i = 0; i <= boundaries_.size(); ++i) {
        stripe.counts[i].store(0, std::memory_order_relaxed);
      }
    }
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value) {
    internal::HistogramStripe& stripe = stripes_[internal::StripeIndex()];
    stripe.counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAddDouble(stripe.sum, value);
  }

  std::size_t BucketIndex(double value) const {
    // First boundary strictly greater than value == the half-open bucket.
    return static_cast<std::size_t>(
        std::upper_bound(boundaries_.begin(), boundaries_.end(), value) -
        boundaries_.begin());
  }

  std::size_t num_buckets() const { return boundaries_.size() + 1; }
  const std::vector<double>& boundaries() const { return boundaries_; }
  const std::string& name() const { return name_; }

  uint64_t BucketCount(std::size_t bucket) const {
    uint64_t total = 0;
    for (const auto& stripe : stripes_) {
      total += stripe.counts[bucket].load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (std::size_t i = 0; i < num_buckets(); ++i) total += BucketCount(i);
    return total;
  }

  double Sum() const {
    double total = 0.0;
    for (const auto& stripe : stripes_) {
      total += stripe.sum.load(std::memory_order_relaxed);
    }
    return total;
  }

  void ResetForTest() {
    for (auto& stripe : stripes_) {
      for (std::size_t i = 0; i < num_buckets(); ++i) {
        stripe.counts[i].store(0, std::memory_order_relaxed);
      }
      stripe.sum.store(0.0, std::memory_order_relaxed);
    }
  }

 private:
  std::string name_;
  std::vector<double> boundaries_;
  internal::HistogramStripe stripes_[kMetricStripes];
};

/// Percentile estimate from fixed-bucket histogram counts, Prometheus
/// histogram_quantile style: find the bucket holding rank q*count and
/// linearly interpolate inside it. The open-ended end buckets are clamped to
/// the outer boundaries (an underflow observation reads as 0, an overflow
/// one as the last boundary), so estimates are conservative, never invented
/// beyond the configured range. The overflow bucket is zero-width under the
/// clamp — `[back, back]` — so a rank landing there reports exactly the last
/// boundary; `saturated` (when non-null) is set to true in that case so the
/// caller can tell a clamped estimate from a real one instead of silently
/// reading the boundary as the percentile. Returns 0 when the histogram is
/// empty.
inline double HistogramPercentile(const std::vector<double>& boundaries,
                                  const std::vector<uint64_t>& counts,
                                  double q, bool* saturated = nullptr) {
  if (saturated != nullptr) *saturated = false;
  uint64_t total = 0;
  for (uint64_t count : counts) total += count;
  if (total == 0 || boundaries.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double lo = i == 0 ? 0.0 : boundaries[i - 1];
    const bool overflow = i >= boundaries.size();
    const double hi = overflow ? boundaries.back() : boundaries[i];
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      if (hi <= lo) {
        if (overflow && saturated != nullptr) *saturated = true;
        return hi;
      }
      const double frac =
          std::min(1.0, std::max(0.0, (rank - before) /
                                          static_cast<double>(counts[i])));
      return lo + (hi - lo) * frac;
    }
  }
  if (saturated != nullptr) *saturated = true;
  return boundaries.back();
}

/// Histogram whose counts cover only the last ~`window_seconds`: the window
/// is split into `num_slots` rotating slots, Observe lands in the slot that
/// owns the current instant (recycling it when its time range has passed),
/// and Snap() merges only the slots still inside the window. Percentiles
/// from a snapshot therefore answer "over the last ~10 s", not over process
/// lifetime — the live view /statusz needs, where the cumulative Histogram
/// above would average today's burst against yesterday's idle hours.
///
/// The clock is injectable (monotonic nanoseconds) so tests drive decay
/// deterministically. A single mutex guards the slots: Observe is O(1) under
/// it, and the expected writers are one batcher thread plus an occasional
/// scrape — not the striped-hot-path regime of the cumulative Histogram.
class WindowedHistogram {
 public:
  using Clock = std::function<uint64_t()>;  // monotonic nanoseconds

  struct Snapshot {
    std::vector<double> boundaries;
    std::vector<uint64_t> bucket_counts;  // boundaries.size() + 1
    uint64_t count = 0;
    double sum = 0.0;
    double window_seconds = 0.0;
    // True when the window saw observations above the last boundary: every
    // percentile landing in the overflow bucket is clamped to the boundary,
    // so high quantiles are lower bounds, not estimates.
    bool saturated = false;

    double Percentile(double q) const {
      return HistogramPercentile(boundaries, bucket_counts, q);
    }
    double Mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  WindowedHistogram(std::string name, std::vector<double> boundaries,
                    double window_seconds = 10.0, std::size_t num_slots = 20,
                    Clock clock = nullptr)
      : name_(std::move(name)),
        boundaries_(std::move(boundaries)),
        window_seconds_(window_seconds),
        clock_(std::move(clock)),
        slots_(num_slots == 0 ? 1 : num_slots) {
    if (window_seconds_ <= 0.0) window_seconds_ = 10.0;
    slot_ns_ = static_cast<uint64_t>(window_seconds_ * 1e9 /
                                     static_cast<double>(slots_.size()));
    if (slot_ns_ == 0) slot_ns_ = 1;
    for (Slot& slot : slots_) {
      slot.counts.assign(boundaries_.size() + 1, 0);
    }
  }
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Observe(double value) {
    const uint64_t epoch = Now() / slot_ns_;
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[epoch % slots_.size()];
    if (slot.epoch != static_cast<int64_t>(epoch)) {
      slot.counts.assign(boundaries_.size() + 1, 0);
      slot.sum = 0.0;
      slot.count = 0;
      slot.epoch = static_cast<int64_t>(epoch);
    }
    ++slot.counts[BucketIndex(value)];
    slot.sum += value;
    ++slot.count;
  }

  /// Merges the slots still inside the window ending now. The current slot
  /// is typically partial, so the snapshot covers between (window - slot)
  /// and window seconds of history.
  Snapshot Snap() const {
    const uint64_t epoch = Now() / slot_ns_;
    Snapshot snapshot;
    snapshot.boundaries = boundaries_;
    snapshot.bucket_counts.assign(boundaries_.size() + 1, 0);
    snapshot.window_seconds = window_seconds_;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Slot& slot : slots_) {
      if (slot.epoch < 0) continue;
      const uint64_t slot_epoch = static_cast<uint64_t>(slot.epoch);
      // Live range: (epoch - num_slots, epoch]. Anything older has been
      // superseded by a full rotation and just hasn't been recycled yet.
      if (slot_epoch > epoch || slot_epoch + slots_.size() <= epoch) continue;
      for (std::size_t i = 0; i < snapshot.bucket_counts.size(); ++i) {
        snapshot.bucket_counts[i] += slot.counts[i];
      }
      snapshot.sum += slot.sum;
      snapshot.count += slot.count;
    }
    snapshot.saturated = snapshot.bucket_counts.back() > 0;
    return snapshot;
  }

  const std::string& name() const { return name_; }
  double window_seconds() const { return window_seconds_; }

 private:
  struct Slot {
    int64_t epoch = -1;  // slot index this slot's counts belong to; -1 unused
    std::vector<uint64_t> counts;
    double sum = 0.0;
    uint64_t count = 0;
  };

  uint64_t Now() const {
    if (clock_) return clock_();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::size_t BucketIndex(double value) const {
    return static_cast<std::size_t>(
        std::upper_bound(boundaries_.begin(), boundaries_.end(), value) -
        boundaries_.begin());
  }

  std::string name_;
  std::vector<double> boundaries_;
  double window_seconds_;
  Clock clock_;
  uint64_t slot_ns_ = 1;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
};

/// One merged metric in a scrape snapshot.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;                     // counter / gauge
  uint64_t count = 0;                    // histogram
  double sum = 0.0;                      // histogram
  std::vector<double> boundaries;        // histogram
  std::vector<uint64_t> bucket_counts;   // histogram, boundaries.size() + 1
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* Find(const std::string& name) const {
    for (const MetricValue& metric : metrics) {
      if (metric.name == name) return &metric;
    }
    return nullptr;
  }
};

class MetricsRegistry {
 public:
  /// Leaked singleton: metric handles cached in function-local statics must
  /// outlive every thread, including detached pool workers at exit.
  static MetricsRegistry& Global() {
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
  }

  Counter* GetCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(name, std::make_unique<Counter>(name)).first;
    }
    return it->second.get();
  }

  Gauge* GetGauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      it = gauges_.emplace(name, std::make_unique<Gauge>(name)).first;
    }
    return it->second.get();
  }

  /// Boundaries must be strictly increasing and are fixed by the first
  /// registration; later lookups by the same name ignore the argument.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& boundaries) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_
               .emplace(name, std::make_unique<Histogram>(name, boundaries))
               .first;
    }
    return it->second.get();
  }

  MetricsSnapshot Scrape() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snapshot;
    std::map<std::string, MetricValue> merged;
    for (const auto& [name, counter] : counters_) {
      MetricValue value;
      value.name = name;
      value.kind = MetricValue::Kind::kCounter;
      value.value = counter->Value();
      merged.emplace(name, std::move(value));
    }
    for (const auto& [name, gauge] : gauges_) {
      MetricValue value;
      value.name = name;
      value.kind = MetricValue::Kind::kGauge;
      value.value = gauge->Value();
      merged.emplace(name, std::move(value));
    }
    for (const auto& [name, histogram] : histograms_) {
      MetricValue value;
      value.name = name;
      value.kind = MetricValue::Kind::kHistogram;
      value.boundaries = histogram->boundaries();
      value.bucket_counts.resize(histogram->num_buckets());
      for (std::size_t i = 0; i < histogram->num_buckets(); ++i) {
        value.bucket_counts[i] = histogram->BucketCount(i);
        value.count += value.bucket_counts[i];
      }
      value.sum = histogram->Sum();
      merged.emplace(name, std::move(value));
    }
    snapshot.metrics.reserve(merged.size());
    for (auto& [name, value] : merged) {
      snapshot.metrics.push_back(std::move(value));
    }
    return snapshot;
  }

  /// Zeroes every registered metric in place (handles stay valid). Test-only:
  /// not synchronized against concurrent updates beyond per-slot atomicity.
  void ResetForTest() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, counter] : counters_) counter->ResetForTest();
    for (auto& [name, gauge] : gauges_) gauge->ResetForTest();
    for (auto& [name, histogram] : histograms_) histogram->ResetForTest();
  }

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shared bucket layout for wall-time histograms, in seconds: 1µs .. 100s,
/// roughly 1-3-10 spaced so both a matmul call and a whole training phase
/// land in an informative bucket.
inline const std::vector<double>& TimeHistogramBoundaries() {
  static const std::vector<double>* boundaries = new std::vector<double>{
      1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
      1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0, 100.0};
  return *boundaries;
}

/// Serializes a scrape as a JSON object keyed by metric name.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Serializes a scrape in the Prometheus text exposition format (0.0.4):
/// metric names sanitized to [a-zA-Z0-9_:], one # TYPE line per family,
/// histograms as cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
/// Served by the admin endpoint as `/metrics?format=prom`.
std::string MetricsToPrometheus(const MetricsSnapshot& snapshot);

/// Scrapes the global registry and atomically writes MetricsToJson output.
/// Defined in metrics.cc (hisrect_obs) — needs util file I/O, so hot-path
/// translation units that only update metrics never pull in a link
/// dependency on it.
util::Status WriteMetricsJsonFile(const std::string& path);

}  // namespace hisrect::obs

#endif  // HISRECT_OBS_METRICS_H_
