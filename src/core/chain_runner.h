#ifndef HISRECT_CORE_CHAIN_RUNNER_H_
#define HISRECT_CORE_CHAIN_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nn/graph_optimizer.h"
#include "nn/graph_recorder.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/plan_executor.h"
#include "nn/tensor.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hisrect::core {

/// A 1x1 per-sample leaf of a loss builder (class target, pair weight,
/// label), declared as a plan input so one recorded plan serves every sample
/// of its shape.
inline nn::Tensor SampleScalar(float value) {
  nn::Tensor leaf = nn::Tensor::FromMatrix(nn::Matrix(1, 1, value));
  nn::RecordPlanInput(leaf);
  return leaf;
}

/// The step body of both trainers. A step runs its B samples as fixed
/// chains, one per gradient shard: chain c runs a fixed sample range on its
/// own module set (`Modules`, the trainer's type) and leaves its gradients
/// there. Serial training is the one chain over the shared modules.
///
/// A loss kind `Loss` is defined by its `Loss::Sample` type and four calls:
///   nn::Tensor Build(const Modules&, const Sample&, util::Rng&) const;
///     the sample's loss on the eager tape. It declares its per-sample
///     leaves with nn::RecordPlanInput, a no-op when nothing is recording,
///     so recording a plan is this builder run under a GraphRecorder.
///   void Bind(const Modules&, const Sample&, nn::PlanInputs&) const;
///     binds those leaves for a replay, in declaration order.
///   nn::PlanCache& Plans(Modules&) const;
///   uint64_t PlanKey(const Sample&) const;
///     where the sample's plan is cached, keyed by the sample's shape.
class ChainRunner {
 public:
  /// `plan.enabled` replays recorded plans instead of the eager tape.
  ChainRunner(const nn::PlanOptions& plan, size_t batch_size)
      : plan_(plan), batch_size_(batch_size) {
    if (plan_.enabled) {
      runs_.resize(batch_size);
      plans_.resize(batch_size);
    }
  }

  bool planned() const { return plan_.enabled; }

  /// Runs one step of `loss` as chains.size() chains and returns each
  /// chain's loss, scale * (sum of its sample losses in sample order).
  /// `draw()` takes the next sample from the trainer state, consuming `rng`.
  ///
  /// One chain draws each sample when it reaches it, so sample draws and
  /// that sample's dropout draws interleave on `rng`. Several chains need a
  /// schedule-free stream: the batch and one Rng::Fork() per sample are
  /// drawn up front on the calling thread (into `batch`), and chain c then
  /// runs its ParallelFor range on the global pool. Either way the
  /// trajectory depends on the seed and the chain count only.
  template <typename Loss, typename Modules, typename Draw>
  const std::vector<float>& Step(const Loss& loss,
                                 std::vector<Modules>& chains, float scale,
                                 util::Rng& rng, Draw&& draw,
                                 std::vector<typename Loss::Sample>& batch) {
    chain_losses_.resize(chains.size());
    if (chains.size() == 1) {
      chain_losses_[0] =
          RunChain(loss, chains[0], 0, batch_size_, scale,
                   [&](size_t) { return std::pair(draw(), &rng); });
      return chain_losses_;
    }
    batch.clear();
    sample_rngs_.clear();
    for (size_t b = 0; b < batch_size_; ++b) {
      batch.push_back(draw());
      sample_rngs_.push_back(rng.Fork());
    }
    util::ParallelFor(
        util::ThreadPool::Global(), batch_size_, chains.size(),
        [&](size_t c, size_t begin, size_t end) {
          chain_losses_[c] = RunChain(
              loss, chains[c], begin, end, scale,
              [&](size_t b) { return std::pair(batch[b], &sample_rngs_[b]); });
        });
    return chain_losses_;
  }

  /// The sample's plan from `modules`' cache, recorded on a miss: the
  /// builder runs under a training GraphRecorder on a copy of `rng`, since
  /// the recorded structure does not depend on the draws and the caller's
  /// stream must stay where the eager tape leaves it. Fused plans stay
  /// bitwise-identical to the eager tape, forward and backward.
  template <typename Loss, typename Modules>
  std::shared_ptr<const nn::Graph> PlanFor(
      const Loss& loss, Modules& modules, const typename Loss::Sample& sample,
      const util::Rng& rng) const {
    nn::PlanCache& cache = loss.Plans(modules);
    const uint64_t key = loss.PlanKey(sample);
    std::shared_ptr<const nn::Graph> plan = cache.Get(key);
    if (plan != nullptr) return plan;
    util::Rng record_rng = rng;
    nn::GraphRecorder recorder(/*training=*/true);
    plan = recorder.Finish(loss.Build(modules, sample, record_rng));
    if (plan_.fuse) plan = nn::FuseGraph(*plan);
    cache.Put(key, plan);
    return plan;
  }

 private:
  /// Runs samples [begin, end) as one chain; `sample_at(b)` yields sample b
  /// and the Rng its draws come from. Eager: builds
  /// Scale(Add(...Add(l_begin, l_begin+1)..., l_end-1), scale) and runs one
  /// Backward. Planned: replays the forward programs in sample order, then
  /// the backward programs in reverse order seeded with `scale`. The eager
  /// backward visits the samples in reverse order and every sample root
  /// receives exactly `scale` through the Add chain, so both executors
  /// produce the same bits. Concurrent chains touch disjoint batch slots.
  template <typename Loss, typename Modules, typename SampleAt>
  float RunChain(const Loss& loss, Modules& modules, size_t begin, size_t end,
                 float scale, SampleAt&& sample_at) {
    if (!plan_.enabled) {
      nn::Tensor sum;
      for (size_t b = begin; b < end; ++b) {
        auto [sample, rng] = sample_at(b);
        nn::Tensor sample_loss = loss.Build(modules, sample, *rng);
        sum = sum.defined() ? nn::Add(sum, sample_loss) : sample_loss;
      }
      nn::Tensor chain_loss = nn::Scale(sum, scale);
      chain_loss.Backward();
      return chain_loss.value().At(0, 0);
    }
    float sum = 0.0f;
    for (size_t b = begin; b < end; ++b) {
      auto [sample, rng] = sample_at(b);
      plans_[b] = PlanFor(loss, modules, sample, *rng);
      nn::PlanRun& run = runs_[b];
      run.inputs.Reset();
      loss.Bind(modules, sample, run.inputs);
      nn::PlanExecutor::Forward(*plans_[b], run, rng);
      const float sample_loss = nn::PlanExecutor::OutputScalar(*plans_[b], run);
      sum = b == begin ? sample_loss : sum + sample_loss;
    }
    for (size_t b = end; b-- > begin;) {
      nn::PlanExecutor::Backward(*plans_[b], runs_[b], scale);
    }
    return sum * scale;
  }

  nn::PlanOptions plan_;
  size_t batch_size_;
  std::vector<float> chain_losses_;
  std::vector<util::Rng> sample_rngs_;
  // Planned executor only: one workspace and replayed plan per batch slot.
  std::vector<nn::PlanRun> runs_;
  std::vector<std::shared_ptr<const nn::Graph>> plans_;
};

/// Sums the chain losses and adds each chain's gradients into `shared`,
/// both in ascending chain order, so the float sums associate identically
/// whichever threads ran the chains. `chain_params(c)` is chain c's
/// parameter list, mirroring `shared` name for name; it is zeroed.
template <typename ChainParams>
double ReduceChains(const std::vector<float>& chain_losses,
                    std::vector<nn::NamedParameter>& shared,
                    ChainParams&& chain_params) {
  double loss = 0.0;
  for (size_t c = 0; c < chain_losses.size(); ++c) {
    loss += chain_losses[c];
    std::vector<nn::NamedParameter>& params = chain_params(c);
    CHECK_EQ(params.size(), shared.size());
    for (size_t p = 0; p < shared.size(); ++p) {
      shared[p].tensor.mutable_grad().AddScaled(params[p].tensor.grad(), 1.0f);
      params[p].tensor.ZeroGrad();
    }
  }
  return loss;
}

}  // namespace hisrect::core

#endif  // HISRECT_CORE_CHAIN_RUNNER_H_
