#ifndef HISRECT_CORE_SSL_TRAINER_H_
#define HISRECT_CORE_SSL_TRAINER_H_

#include <string>
#include <vector>

#include "core/affinity.h"
#include "core/checkpoint.h"
#include "core/featurizer.h"
#include "core/heads.h"
#include "core/profile_encoder.h"
#include "data/dataset.h"
#include "nn/adam.h"
#include "nn/plan_executor.h"
#include "util/rng.h"
#include "util/status.h"

namespace hisrect::core {

/// Unsupervised-loss variants (§6.4.3 ablation).
enum class UnsupLossKind {
  /// a_ij * (1 - <E(F(r_i)), E(F(r_j))>)  — the paper's cosine form (Eq. 4).
  kCosine,
  /// a_ij * ||E(F(r_i)) - E(F(r_j))||^2   — the Weston et al. form.
  kSquaredL2,
};

struct SslTrainerOptions {
  size_t steps = 4000;
  size_t batch_size = 8;
  /// false reproduces HisRect-SL: the affinity graph keeps only labeled
  /// pairs, so no unlabeled data is leveraged.
  bool use_unlabeled_pairs = true;
  UnsupLossKind unsup_loss = UnsupLossKind::kCosine;
  /// Scale of L_u relative to L_poi. The paper uses an implicit 1.0; at this
  /// library's scale a smaller weight keeps the unsupervised churn from
  /// drowning the supervised signal on the shared featurizer.
  float unsup_weight = 1.0f;
  /// false removes the embedding network E: the loss is computed on the
  /// L2-normalized features themselves (§6.4.3 second ablation).
  bool use_embedding = true;
  /// Fraction of negative + unlabeled pairs sampled per epoch (the paper
  /// uses 1/10 to rebalance against the scarce positives).
  double pair_keep_fraction = 0.1;
  /// Lower bound on the fraction of supervised (L_poi) steps. Algorithm 1's
  /// ratio |R_L| : |Gamma| leaves P undertrained at the scaled-down data
  /// sizes; the floor keeps POI inference usable.
  double min_poi_step_fraction = 0.5;
  /// Data-parallel gradient shards per step (see
  /// JudgeTrainerOptions::num_shards; same fixed-shard determinism
  /// contract). <= 1 trains serially: the step is one chain over the shared
  /// modules (core/chain_runner.h).
  size_t num_shards = 1;
  nn::AdamOptions adam;
  AffinityOptions affinity;
  /// Checkpoint/resume and NaN-divergence policy (prefix "ssl").
  CheckpointOptions checkpoint;
  DivergenceGuardOptions guard;
  /// plan.enabled replays recorded graph plans (keyed by tweet word count)
  /// instead of rebuilding the eager tape per sample, serial or sharded:
  /// zero steady-state tensor allocations, bitwise-identical
  /// losses/parameters.
  nn::PlanOptions plan;
};

struct SslTrainStats {
  size_t poi_steps = 0;
  size_t pair_steps = 0;
  /// Mean losses over the final 10% of steps of each kind.
  double final_poi_loss = 0.0;
  double final_unsup_loss = 0.0;
  /// Divergence-guard rollbacks taken during the run (0 = clean run).
  size_t rollbacks = 0;
  /// Tensor nodes allocated after plan prewarm (planned path: 0 in steady
  /// state; eager path: grows with every step).
  int64_t steady_tensor_allocs = 0;
};

/// Algorithm 1 of the paper: joint semi-supervised training of the HisRect
/// featurizer F, POI classifier P (supervised L_poi) and embedder E
/// (graph-based unsupervised L_u). Uses two Adam optimizers, one per loss,
/// as in the paper.
class SslTrainer {
 public:
  /// All modules must outlive the trainer. `embedder` may be null when
  /// options.use_embedding is false.
  SslTrainer(HisRectFeaturizer* featurizer, PoiClassifier* classifier,
             Embedder* embedder, const SslTrainerOptions& options);

  /// `encoded` must be parallel to `split.profiles`. Legacy entry point:
  /// CHECK-fails on any checkpoint or divergence error.
  SslTrainStats Train(const std::vector<EncodedProfile>& encoded,
                      const data::DataSplit& split, const geo::PoiSet& pois,
                      util::Rng& rng);

  /// Fault-tolerant entry point: periodic HRCT2 checkpoints of the full run
  /// state (parameters, both Adam optimizers, RNG, pair pool, counters) per
  /// SslTrainerOptions::checkpoint, resume bitwise-identical to an
  /// uninterrupted run at the same num_shards, and NaN/Inf divergence
  /// rollback per SslTrainerOptions::guard.
  util::Status Train(const std::vector<EncodedProfile>& encoded,
                     const data::DataSplit& split, const geo::PoiSet& pois,
                     util::Rng& rng, SslTrainStats* stats);

  /// Writes the state of the most recent Train run to `path` atomically.
  /// FailedPrecondition before any Train.
  util::Status SaveCheckpoint(const std::string& path) const;

  /// Schedules an explicit checkpoint for the next Train call to restore at
  /// startup, overriding the CheckpointOptions directory scan.
  util::Status ResumeFromCheckpoint(const std::string& path);

 private:
  HisRectFeaturizer* featurizer_;
  PoiClassifier* classifier_;
  Embedder* embedder_;
  SslTrainerOptions options_;

  /// Encoded container of the last Train run's exit state.
  std::string last_run_state_;
  std::string pending_resume_path_;
};

}  // namespace hisrect::core

#endif  // HISRECT_CORE_SSL_TRAINER_H_
