#include "serve/stage_trace.h"

#include <algorithm>

namespace hisrect::serve {

const char* StageTraceOutcomeName(StageTrace::Outcome outcome) {
  switch (outcome) {
    case StageTrace::Outcome::kScored:
      return "scored";
    case StageTrace::Outcome::kExpired:
      return "expired";
    case StageTrace::Outcome::kCancelled:
      return "cancelled";
    case StageTrace::Outcome::kAborted:
      return "aborted";
  }
  return "unknown";
}

StageTraceBuffer::StageTraceBuffer(size_t capacity,
                                   double slow_threshold_seconds,
                                   size_t slow_capacity)
    : capacity_((std::max<size_t>(capacity, kStripes) + kStripes - 1) /
                kStripes * kStripes),
      slow_threshold_(slow_threshold_seconds),
      slow_capacity_(slow_capacity) {
  const size_t per_stripe = capacity_ / kStripes;
  for (Stripe& stripe : stripes_) stripe.ring.resize(per_stripe);
  slow_.reserve(slow_capacity_);
}

void StageTraceBuffer::Record(StageTrace trace) {
  trace.sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  Stripe& stripe = stripes_[trace.sequence % kStripes];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.ring[stripe.next] = trace;
  stripe.next = (stripe.next + 1) % stripe.ring.size();
  stripe.filled = std::min(stripe.filled + 1, stripe.ring.size());
  ++stripe.recorded;
}

void StageTraceBuffer::RecordSlow(SlowExemplar exemplar) {
  if (slow_capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(slow_mutex_);
  // Insert sorted, slowest first; drop the fastest once over capacity.
  auto pos = std::upper_bound(
      slow_.begin(), slow_.end(), exemplar,
      [](const SlowExemplar& a, const SlowExemplar& b) {
        return a.trace.total_seconds > b.trace.total_seconds;
      });
  if (slow_.size() >= slow_capacity_) {
    if (pos == slow_.end()) return;
    slow_.pop_back();
    // pos stays valid: it pointed before the popped tail element.
  }
  slow_.insert(pos, std::move(exemplar));
}

std::vector<StageTrace> StageTraceBuffer::Recent(size_t max_traces) const {
  std::vector<StageTrace> all;
  all.reserve(std::min(max_traces * 2, capacity_));
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (size_t i = 0; i < stripe.filled; ++i) all.push_back(stripe.ring[i]);
  }
  std::sort(all.begin(), all.end(),
            [](const StageTrace& a, const StageTrace& b) {
              return a.sequence > b.sequence;
            });
  if (all.size() > max_traces) all.resize(max_traces);
  return all;
}

std::vector<SlowExemplar> StageTraceBuffer::SlowExemplars() const {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  return slow_;
}

uint64_t StageTraceBuffer::recorded() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.recorded;
  }
  return total;
}

}  // namespace hisrect::serve
