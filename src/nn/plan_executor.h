#ifndef HISRECT_NN_PLAN_EXECUTOR_H_
#define HISRECT_NN_PLAN_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/graph_ir.h"
#include "util/rng.h"

namespace hisrect::nn {

/// Opt-in switch for plan-based execution, threaded through trainer and
/// model configs. Off by default: the eager tape stays the reference path.
struct PlanOptions {
  bool enabled = false;
  /// Run GraphOptimizer fusion (Linear+ReLU / Linear+Tanh / MatMul+bias,
  /// plus the LSTM-gate dual linear in inference plans) over recorded plans.
  /// Fused plans stay bitwise-identical to the eager tape, so every path —
  /// training, offline eval, serving — scores the same bits either way.
  bool fuse = false;
};

/// Per-run input binder. Inputs must be added in the exact order the leaves
/// were declared with RecordPlanInput during recording. Pointers can be
/// direct (caller-owned storage that outlives the execution) or staged
/// (copied into an internal grow-only buffer — required for values that are
/// materialized on the fly, e.g. embedding rows). Steady state performs no
/// allocation: all vectors grow to their high-water capacity during warmup
/// and are reused.
class PlanInputs {
 public:
  void Reset() {
    entries_.clear();
    staging_.clear();
  }

  /// Caller-owned pointer, stable for the duration of the execution.
  void AddDirect(const float* data) { entries_.push_back({data, 0, 0}); }

  /// Copies n floats into the staging buffer.
  void AddStaged(const float* data, size_t n) {
    size_t offset = staging_.size();
    staging_.insert(staging_.end(), data, data + n);
    entries_.push_back({nullptr, offset, n});
  }

  /// Reserves n staged floats and returns a pointer to fill immediately —
  /// the pointer is invalidated by the next Add*/AllocStaged call.
  float* AllocStaged(size_t n) {
    size_t offset = staging_.size();
    staging_.resize(offset + n);
    entries_.push_back({nullptr, offset, n});
    return staging_.data() + offset;
  }

  /// Resolves every entry to a pointer. Call after ALL adds (staging may
  /// reallocate while filling).
  const std::vector<const float*>& Pointers() const {
    pointers_.clear();
    pointers_.reserve(entries_.size());
    for (const Entry& e : entries_) {
      pointers_.push_back(e.direct != nullptr ? e.direct
                                              : staging_.data() + e.offset);
    }
    return pointers_;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    const float* direct;  // null for staged entries
    size_t offset;
    size_t len;
  };
  std::vector<Entry> entries_;
  std::vector<float> staging_;
  mutable std::vector<const float*> pointers_;
};

/// Reusable per-execution workspace: the arena plus the input binder. One
/// PlanRun must not be shared across threads concurrently; pool or stripe
/// them instead (the Graph itself is immutable and freely shared).
struct PlanRun {
  std::vector<float> arena;
  PlanInputs inputs;
};

/// Replays a recorded, memory-planned Graph. All methods are static and
/// re-entrant; all mutable state lives in PlanRun (and in the bound
/// parameter Nodes for Backward).
class PlanExecutor {
 public:
  /// Executes the forward program. Grows run.arena to the planned size on
  /// first use (the only allocation; steady-state replays allocate nothing).
  /// `rng` feeds dropout instrs and must be in the same state as the eager
  /// tape's rng would be — pass nullptr for graphs without dropout.
  static void Forward(const Graph& graph, PlanRun& run, util::Rng* rng);

  /// Executes the backward program, seeding d(output)/d(output) = seed.
  /// Accumulates into the bound parameters' Node::grad matrices — the same
  /// persistent-accumulation semantics as the eager tape (the optimizer
  /// zeroes them after its step).
  static void Backward(const Graph& graph, PlanRun& run, float seed);

  /// The recorded output value (must be 1x1).
  static float OutputScalar(const Graph& graph, const PlanRun& run);

  /// Pointer to the recorded output buffer in the run's arena.
  static const float* OutputData(const Graph& graph, const PlanRun& run);
};

/// Keyed plan store with hit/miss counters
/// (`hisrect.nn.plan_cache_{hits,misses}`).
/// Not thread-safe; guard externally or keep one per worker.
class PlanCache {
 public:
  std::shared_ptr<const Graph> Get(uint64_t key);
  void Put(uint64_t key, std::shared_ptr<const Graph> graph);
  size_t size() const { return plans_.size(); }

 private:
  std::unordered_map<uint64_t, std::shared_ptr<const Graph>> plans_;
};

}  // namespace hisrect::nn

#endif  // HISRECT_NN_PLAN_EXECUTOR_H_
