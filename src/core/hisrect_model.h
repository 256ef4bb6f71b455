#ifndef HISRECT_CORE_HISRECT_MODEL_H_
#define HISRECT_CORE_HISRECT_MODEL_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/featurizer.h"
#include "core/heads.h"
#include "core/judge_trainer.h"
#include "core/profile_encoder.h"
#include "core/ssl_trainer.h"
#include "core/text_model.h"
#include "data/dataset.h"
#include "geo/poi.h"
#include "nn/plan_executor.h"
#include "util/status.h"

namespace hisrect::core {

/// End-to-end model configuration. The defaults reproduce the paper's
/// HisRect; the flags and enum knobs reproduce its learned baselines
/// (HisRect-SL, One-phase, History-only, Tweet-only, One-hot, BLSTM,
/// ConvLSTM) — see baselines/registry.h.
struct HisRectModelConfig {
  FeaturizerConfig featurizer;
  SslTrainerOptions ssl;
  JudgeTrainerOptions judge_trainer;
  VisitFeaturizerOptions visit_options;
  /// Encoder memo-cache sizing (bounded LRU). Offline fits want the default
  /// (larger than any split); serving sizes it to the live working set.
  EncoderOptions encoder_options;
  /// Recorded-plan execution (see nn/plan_executor.h). When enabled, both
  /// training phases and ScorePairEncoded replay static memory-planned
  /// graphs — zero steady-state tensor allocations — with outputs
  /// bitwise-identical to the eager tape.
  nn::PlanOptions plan;

  /// Layers in the POI classifier P.
  size_t poi_classifier_layers = 2;
  /// Dim of the SSL embedding E and layers Qe.
  size_t embed_dim = 16;
  size_t qe = 2;
  /// Dim of the judge embedding E' and layers Qe', Qc.
  size_t judge_embed_dim = 16;
  size_t qe_prime = 2;
  size_t qc = 3;

  /// One-phase baseline: skip HisRect feature training entirely and train F
  /// jointly with the judge on labeled pairs.
  bool one_phase = false;

  /// Shards for the profile-encoding pass in Fit (0 = one per pool worker).
  /// Like AffinityOptions::num_shards this is performance-only: encoded
  /// output is identical at any shard or thread count.
  size_t encode_shards = 0;

  /// Parameter-initialization / sampling seed.
  uint64_t seed = 1;
};

/// The full HisRect pipeline (paper Fig. 1): profile encoding, the HisRect
/// featurizer F, semi-supervised training with POI classifier P and
/// embedder E, and the co-location judge (E', C).
///
/// Lifetimes: the Dataset's PoiSet and the TextModel passed to Fit must
/// outlive the model.
class HisRectModel {
 public:
  explicit HisRectModel(const HisRectModelConfig& config);

  HisRectModel(const HisRectModel&) = delete;
  HisRectModel& operator=(const HisRectModel&) = delete;

  /// Trains the featurizer (SSL phase, unless one_phase) and the judge.
  /// CHECK-fails on any checkpoint or divergence error; see TryFit.
  void Fit(const data::Dataset& dataset, const TextModel& text_model);

  /// Fault-tolerant Fit: surfaces checkpoint I/O failures, invalid resume
  /// files, and exhausted divergence-guard retries as a Status instead of
  /// crashing. With config.ssl.checkpoint / config.judge_trainer.checkpoint
  /// configured (dir + resume), an interrupted pipeline re-run fast-forwards
  /// through completed phases via their final checkpoints and resumes the
  /// interrupted one, bitwise-identically to an uninterrupted run.
  util::Status TryFit(const data::Dataset& dataset,
                      const TextModel& text_model);

  /// p_co in [0, 1] for two raw profiles; >= 0.5 means judged co-located
  /// (tie rule shared with eval::ConfusionAtThreshold and the ROC sweep).
  double ScorePair(const data::Profile& a, const data::Profile& b) const;
  double ScorePairEncoded(const EncodedProfile& a,
                          const EncodedProfile& b) const;
  bool JudgePair(const data::Profile& a, const data::Profile& b) const {
    return ScorePair(a, b) >= 0.5;
  }

  /// POI inference: the top-k POIs by classifier probability, best first.
  std::vector<std::pair<geo::PoiId, float>> InferPoi(
      const data::Profile& profile, size_t k) const;
  std::vector<std::pair<geo::PoiId, float>> InferPoiEncoded(
      const EncodedProfile& profile, size_t k) const;

  /// The HisRect feature F(r) as a plain vector (for t-SNE, analysis).
  std::vector<float> Feature(const data::Profile& profile) const;

  /// Preprocesses a raw profile with this model's encoder, through the
  /// encoder's cache: every split (train during Fit, val/test at inference)
  /// encodes each resident profile at most once. Returns a shared handle —
  /// cache hits hand out the stored object without a deep copy, and the
  /// handle stays valid after LRU eviction.
  EncodedProfileHandle Encode(const data::Profile& profile) const;

  /// The model's profile encoder (cache stats live here). Requires
  /// Fit/InitializeForLoad to have built the modules.
  const ProfileEncoder& encoder() const;

  /// Saves all trained parameters (featurizer, classifier, embedder, judge)
  /// to `path`. Requires fitted().
  util::Status Save(const std::string& path) const;

  /// Restores parameters saved by Save into this model. The model must have
  /// been constructed with the same config and Fit-initialized against a
  /// structurally identical dataset/text model (cheap path: call
  /// InitializeForLoad first). Fails without partial application on any
  /// name or shape mismatch.
  util::Status Load(const std::string& path);

  /// Builds the untrained module graph (encoder + networks) against a
  /// dataset and text model without running any training — the counterpart
  /// of Fit for deserialization.
  void InitializeForLoad(const data::Dataset& dataset,
                         const TextModel& text_model);

  const HisRectModelConfig& config() const { return config_; }
  const SslTrainStats& ssl_stats() const { return ssl_stats_; }
  const JudgeTrainStats& judge_stats() const { return judge_stats_; }
  bool fitted() const { return featurizer_ != nullptr; }

 private:
  nn::Tensor FeaturizeEncoded(const EncodedProfile& profile) const;

  /// Plan-replay scoring path (config_.plan.enabled): records one eval-mode
  /// plan per (word count a, word count b) on first use, then replays it
  /// from a pooled workspace. Thread-safe; bitwise-identical to the eager
  /// ScorePairEncoded, fused or not.
  double ScorePairPlanned(const EncodedProfile& a,
                          const EncodedProfile& b) const;

  /// Records (and, per config_.plan, fuses) one eval-mode scoring plan for
  /// the shapes of `a` and `b`. Called outside the planned-scorer lock.
  std::shared_ptr<const nn::Graph> RecordScorePlan(
      const EncodedProfile& a, const EncodedProfile& b) const;

  /// Constructs encoder + networks from config (no training).
  void BuildModules(const data::Dataset& dataset, const TextModel& text_model);

  /// All trainable parameters across the four networks, stably named.
  std::vector<nn::NamedParameter> AllParameters() const;

  HisRectModelConfig config_;
  const geo::PoiSet* pois_ = nullptr;
  const TextModel* text_model_ = nullptr;

  std::unique_ptr<ProfileEncoder> encoder_;
  std::unique_ptr<HisRectFeaturizer> featurizer_;
  std::unique_ptr<PoiClassifier> classifier_;
  std::unique_ptr<Embedder> embedder_;
  std::unique_ptr<JudgeHead> judge_;

  SslTrainStats ssl_stats_;
  JudgeTrainStats judge_stats_;

  /// ScorePairPlanned state: the plan cache plus a free list of PlanRun
  /// workspaces (a run is checked out per call, so concurrent scorers never
  /// share arenas). Guarded by `mu`; recording happens outside the lock.
  struct PlannedScorer {
    std::mutex mu;
    nn::PlanCache plans;
    std::vector<std::unique_ptr<nn::PlanRun>> pool;
  };
  mutable PlannedScorer planned_scorer_;
};

}  // namespace hisrect::core

#endif  // HISRECT_CORE_HISRECT_MODEL_H_
