#include "nn/memory_planner.h"

#include <algorithm>
#include <atomic>
#include <vector>

// Header-only metrics core: no link dependency needed for the gauge.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

namespace {

constexpr size_t kAlignFloats = 16;  // 64-byte lines

inline bool ArenaPlanned(BufferDesc::Kind kind) {
  switch (kind) {
    case BufferDesc::Kind::kArena:
    case BufferDesc::Kind::kArenaGrad:
    case BufferDesc::Kind::kAux:
    case BufferDesc::Kind::kScratch:
      return true;
    default:
      return false;
  }
}

inline size_t AlignedSize(size_t floats) {
  return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// Deterministic first-fit arena: blocks sorted by offset, coalesced on
/// free; allocation order is fully determined by the caller's call order.
class Arena {
 public:
  size_t Allocate(size_t floats) {
    floats = AlignedSize(floats);
    for (size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].size >= floats) {
        size_t offset = free_[i].offset;
        free_[i].offset += floats;
        free_[i].size -= floats;
        if (free_[i].size == 0) free_.erase(free_.begin() + i);
        return offset;
      }
    }
    size_t offset = tail_;
    tail_ += floats;
    high_water_ = std::max(high_water_, tail_);
    return offset;
  }

  void Free(size_t offset, size_t floats) {
    floats = AlignedSize(floats);
    Block block{offset, floats};
    auto it = std::lower_bound(
        free_.begin(), free_.end(), block,
        [](const Block& a, const Block& b) { return a.offset < b.offset; });
    it = free_.insert(it, block);
    // Coalesce with the successor, then the predecessor.
    size_t i = static_cast<size_t>(it - free_.begin());
    if (i + 1 < free_.size() &&
        free_[i].offset + free_[i].size == free_[i + 1].offset) {
      free_[i].size += free_[i + 1].size;
      free_.erase(free_.begin() + i + 1);
    }
    if (i > 0 && free_[i - 1].offset + free_[i - 1].size == free_[i].offset) {
      free_[i - 1].size += free_[i].size;
      free_.erase(free_.begin() + i);
      i -= 1;
    }
    // Return a block touching the tail to the tail.
    if (free_[i].offset + free_[i].size == tail_) {
      tail_ = free_[i].offset;
      free_.erase(free_.begin() + i);
    }
  }

  size_t high_water() const { return high_water_; }

 private:
  struct Block {
    size_t offset;
    size_t size;
  };
  std::vector<Block> free_;
  size_t tail_ = 0;
  size_t high_water_ = 0;
};

void PublishArenaHighWater(size_t bytes) {
  // Process-wide high-water across every plan built so far.
  static std::atomic<int64_t> max_bytes{0};
  int64_t value = static_cast<int64_t>(bytes);
  int64_t seen = max_bytes.load(std::memory_order_relaxed);
  while (seen < value &&
         !max_bytes.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("hisrect.nn.arena_bytes");
  gauge->Set(std::max(seen, value));
}

}  // namespace

void PlanMemory(Graph* graph) {
  const size_t num_buffers = graph->buffers.size();
  const int32_t forward_len = static_cast<int32_t>(graph->instrs.size());
  const int32_t total_len =
      forward_len + static_cast<int32_t>(graph->backward_order.size());

  std::vector<int32_t> birth(num_buffers, -1);
  std::vector<int32_t> death(num_buffers, -1);
  auto extend = [&](int32_t buffer, int32_t pos) {
    if (buffer < 0) return;
    if (!ArenaPlanned(graph->buffers[buffer].kind)) return;
    death[buffer] = std::max(death[buffer], pos);
  };

  // Forward pass: outputs and aux are born at their instr; operands are read
  // there.
  for (int32_t i = 0; i < forward_len; ++i) {
    const Instr& ins = graph->instrs[i];
    birth[ins.out] = i;
    death[ins.out] = i;
    if (ins.aux >= 0) {
      birth[ins.aux] = i;
      death[ins.aux] = i;
    }
    for (int32_t in : ins.in) extend(in, i);
  }

  // Backward pass: per-schema value reads, gradient intervals, aux reads,
  // scratch.
  for (size_t p = 0; p < graph->backward_order.size(); ++p) {
    const int32_t pos = forward_len + static_cast<int32_t>(p);
    const Instr& ins = graph->instrs[graph->backward_order[p]];
    const OpSchema& schema = GetOpSchema(ins.kind);
    CHECK(schema.backward != nullptr)
        << "backward step " << p << " runs forward-only op " << schema.name;
    if (schema.needs_parent_values_bwd) {
      for (int32_t in : ins.in) extend(in, pos);
    }
    if (schema.needs_self_value_bwd) extend(ins.out, pos);
    if (ins.aux >= 0) extend(ins.aux, pos);
    if (ins.scratch >= 0) {
      birth[ins.scratch] = pos;
      death[ins.scratch] = pos;
    }
    extend(ins.out_grad, pos);
    for (int32_t gb : ins.in_grad) extend(gb, pos);
    for (int32_t gb : graph->zero_before[p]) {
      if (birth[gb] < 0) birth[gb] = pos;
    }
  }
  // The root gradient is born at seed time, before backward step 0.
  if (graph->output_grad_buffer >= 0) {
    birth[graph->output_grad_buffer] = forward_len;
  }
  // The declared output is read after execution: pin it past the end so its
  // storage is never reused.
  if (graph->output_buffer >= 0 &&
      ArenaPlanned(graph->buffers[graph->output_buffer].kind)) {
    death[graph->output_buffer] = total_len;
  }

  // Bucket births and deaths by position. Buffer ids ascend within each
  // bucket (we iterate ids in order), making the layout deterministic.
  std::vector<std::vector<int32_t>> births_at(total_len + 1);
  std::vector<std::vector<int32_t>> deaths_at(total_len + 1);
  for (size_t b = 0; b < num_buffers; ++b) {
    if (!ArenaPlanned(graph->buffers[b].kind)) continue;
    if (birth[b] < 0) continue;  // recorded but never used (dead grad)
    CHECK_GE(death[b], birth[b]);
    births_at[birth[b]].push_back(static_cast<int32_t>(b));
    if (death[b] < total_len) {
      deaths_at[death[b]].push_back(static_cast<int32_t>(b));
    }
  }

  // Single sweep: at each position allocate births BEFORE freeing deaths, so
  // an op's output never aliases an operand whose last use is that op.
  Arena arena;
  for (int32_t pos = 0; pos <= total_len; ++pos) {
    for (int32_t b : births_at[pos]) {
      graph->buffers[b].offset = arena.Allocate(graph->buffers[b].size());
    }
    for (int32_t b : deaths_at[pos]) {
      arena.Free(graph->buffers[b].offset, graph->buffers[b].size());
    }
  }

  graph->arena_floats = arena.high_water();
  graph->live.resize(num_buffers);
  for (size_t b = 0; b < num_buffers; ++b) {
    graph->live[b] = {birth[b], death[b]};
  }
  PublishArenaHighWater(graph->arena_floats * sizeof(float));
}

void ComputeZeroBefore(Graph* graph, int32_t root_grad) {
  // Grad buffers are arena-reused, so they are zeroed at first write — the
  // backward step where a consumer first accumulates into them (or the own
  // step, for a grad no consumer ever touched, mirroring EnsureGrad's
  // zeros). The root grad is born at seed time instead.
  graph->zero_before.assign(graph->backward_order.size(), {});
  std::vector<char> born(graph->buffers.size(), 0);
  if (root_grad >= 0) born[root_grad] = 1;
  for (size_t p = 0; p < graph->backward_order.size(); ++p) {
    const Instr& ins = graph->instrs[graph->backward_order[p]];
    auto mark = [&](int32_t gb) {
      if (gb < 0) return;
      if (graph->buffers[gb].kind != BufferDesc::Kind::kArenaGrad) return;
      if (born[gb]) return;
      born[gb] = 1;
      graph->zero_before[p].push_back(gb);
    };
    mark(ins.out_grad);
    for (int32_t gb : ins.in_grad) mark(gb);
  }
}

}  // namespace hisrect::nn
