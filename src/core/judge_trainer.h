#ifndef HISRECT_CORE_JUDGE_TRAINER_H_
#define HISRECT_CORE_JUDGE_TRAINER_H_

#include <string>
#include <vector>

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

struct JudgeTrainerOptions {
  size_t steps = 3000;
  size_t batch_size = 8;
  /// Fraction of negative pairs sampled per epoch (paper: 1/10).
  double negative_keep_fraction = 0.1;
  /// true implements the One-phase baseline: the featurizer F is trained
  /// jointly with E' and C on L_co (no separate HisRect feature training).
  /// false is the paper's two-phase approach (Theta_F fixed).
  bool train_featurizer = false;
  /// Data-parallel gradient shards per step. > 1 splits each minibatch into
  /// this many fixed shards executed on the global thread pool; every shard
  /// backpropagates through its own replica tape and the shard gradients
  /// are reduced into the shared parameters in shard order before a single
  /// Adam step. Results depend only on this value (and the seed), never on
  /// how many pool threads actually run the shards. <= 1 trains serially:
  /// the step is one chain over the shared modules (core/chain_runner.h).
  size_t num_shards = 1;
  nn::AdamOptions adam;
  /// Checkpoint/resume and NaN-divergence policy (prefix "judge").
  CheckpointOptions checkpoint;
  DivergenceGuardOptions guard;
  /// plan.enabled replays one recorded judge-head plan per shard over the
  /// precomputed feature rows instead of rebuilding the eager tape per
  /// sample: zero steady-state tensor allocations, bitwise-identical
  /// losses/parameters. Ignored (eager fallback) when train_featurizer is
  /// true, since the One-phase baseline's features are not step-invariant.
  nn::PlanOptions plan;
};

struct JudgeTrainStats {
  /// Mean L_co over the final 10% of steps.
  double final_loss = 0.0;
  /// Divergence-guard rollbacks taken during the run (0 = clean run).
  size_t rollbacks = 0;
  /// Tensor nodes allocated after plan prewarm (planned path: 0 in steady
  /// state; eager path: grows with every step).
  int64_t steady_tensor_allocs = 0;
};

/// Trains the co-location judge (E', C) on the labeled pairs Gamma_L with
/// the log loss L_co (paper §5).
class JudgeTrainer {
 public:
  JudgeTrainer(HisRectFeaturizer* featurizer, JudgeHead* judge,
               const JudgeTrainerOptions& options);

  /// Legacy entry point: CHECK-fails on any checkpoint or divergence error.
  JudgeTrainStats Train(const std::vector<EncodedProfile>& encoded,
                        const data::DataSplit& split, util::Rng& rng);

  /// Fault-tolerant entry point. Per JudgeTrainerOptions::checkpoint this
  /// periodically snapshots the full run state (parameters, Adam moments,
  /// RNG, sampling pool, counters) to HRCT2 checkpoints and can resume from
  /// them — a resumed run is bitwise-identical to an uninterrupted one at
  /// the same num_shards. Non-OK when a checkpoint cannot be written, an
  /// explicit resume fails, or the divergence guard exhausts its rollbacks.
  util::Status Train(const std::vector<EncodedProfile>& encoded,
                     const data::DataSplit& split, util::Rng& rng,
                     JudgeTrainStats* stats);

  /// Writes the state of the most recent Train run (final state of a
  /// completed run; state at failure of an aborted one) to `path` as an
  /// HRCT2 checkpoint, atomically. FailedPrecondition before any Train.
  util::Status SaveCheckpoint(const std::string& path) const;

  /// Schedules an explicit checkpoint for the next Train call to restore at
  /// startup, overriding the CheckpointOptions directory scan. The file is
  /// validated (magic, version, checksums) now; full state restoration
  /// happens inside Train.
  util::Status ResumeFromCheckpoint(const std::string& path);

 private:
  HisRectFeaturizer* featurizer_;
  JudgeHead* judge_;
  JudgeTrainerOptions options_;

  /// Encoded container of the last Train run's exit state.
  std::string last_run_state_;
  std::string pending_resume_path_;
};

}  // namespace hisrect::core

#endif  // HISRECT_CORE_JUDGE_TRAINER_H_
