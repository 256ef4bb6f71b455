#include "core/ssl_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "core/chain_runner.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/fail_point.h"
#include "util/logging.h"

namespace hisrect::core {

namespace {

/// Discriminates trainer checkpoints inside the shared HRCT2 "meta" section.
constexpr uint32_t kSslCheckpointKind = 2;

/// One data-parallel worker: replica modules plus parameter lists mirroring
/// the two shared optimizer lists (same names, same order).
struct SslWorker {
  std::unique_ptr<HisRectFeaturizer> featurizer;
  std::unique_ptr<PoiClassifier> classifier;
  std::unique_ptr<Embedder> embedder;  // Only when use_embedding.
  std::vector<nn::NamedParameter> poi_params;
  std::vector<nn::NamedParameter> unsup_params;
};

/// The module set one chain runs on (the shared modules, or one worker's
/// replicas) and its recorded plans, keyed by sample shape. PlanCache is not
/// thread-safe; each chain is touched by exactly one thread.
struct SslChain {
  const HisRectFeaturizer* featurizer = nullptr;
  const PoiClassifier* classifier = nullptr;
  const Embedder* embedder = nullptr;  // Only when use_embedding.
  nn::PlanCache poi_plans;    // key: tweet word count
  nn::PlanCache unsup_plans;  // key: (word count i) << 32 | (word count j)
};

/// L_poi on one labeled profile, sampled as its index into `encoded`: the
/// cross entropy of P(F(r)) against r.pid.
struct PoiLoss {
  using Sample = size_t;
  const std::vector<EncodedProfile>& encoded;

  nn::Tensor Build(const SslChain& chain, size_t index, util::Rng& rng) const {
    const EncodedProfile& profile = encoded[index];
    nn::Tensor feature = chain.featurizer->Featurize(profile, rng, true);
    nn::Tensor logits = chain.classifier->Logits(feature, rng, true);
    return nn::SoftmaxCrossEntropy(
        logits, SampleScalar(static_cast<float>(profile.pid)));
  }
  void Bind(const SslChain& chain, size_t index,
            nn::PlanInputs& inputs) const {
    chain.featurizer->BindPlanInputs(encoded[index], inputs);
    const float target = static_cast<float>(encoded[index].pid);
    inputs.AddStaged(&target, 1);
  }
  nn::PlanCache& Plans(SslChain& chain) const { return chain.poi_plans; }
  uint64_t PlanKey(size_t index) const { return encoded[index].words.size(); }
};

/// L_u on one affinity pair, weighted by a_ij: the cosine form of Eq. 4 or
/// the squared-L2 ablation, on E(F(r)) or, without E, on the L2-normalized
/// features.
struct UnsupLoss {
  using Sample = WeightedPair;
  const std::vector<EncodedProfile>& encoded;
  const SslTrainerOptions& options;

  nn::Tensor Build(const SslChain& chain, const WeightedPair& pair,
                   util::Rng& rng) const {
    nn::Tensor fi = chain.featurizer->Featurize(encoded[pair.i], rng, true);
    nn::Tensor fj = chain.featurizer->Featurize(encoded[pair.j], rng, true);
    nn::Tensor ei = options.use_embedding ? chain.embedder->Embed(fi, rng, true)
                                          : nn::L2NormalizeRow(fi);
    nn::Tensor ej = options.use_embedding ? chain.embedder->Embed(fj, rng, true)
                                          : nn::L2NormalizeRow(fj);
    nn::Tensor sample_loss;
    switch (options.unsup_loss) {
      case UnsupLossKind::kCosine: {
        // a_ij * (1 - <e_i, e_j>), built as a_ij - a_ij * dot with -a_ij a
        // leaf of its own (float negation is exact). The constant a_ij adds
        // nothing to gradients; it makes the reported loss match Eq. 4.
        nn::Tensor dot = nn::Dot(ei, ej);
        nn::Tensor neg_weight = SampleScalar(-pair.weight);
        nn::Tensor weight = SampleScalar(pair.weight);
        sample_loss = nn::Add(nn::MulScalar(dot, neg_weight), weight);
        break;
      }
      case UnsupLossKind::kSquaredL2: {
        nn::Tensor distance = nn::SquaredL2Diff(ei, ej);
        sample_loss = nn::MulScalar(distance, SampleScalar(pair.weight));
        break;
      }
    }
    return sample_loss;
  }
  void Bind(const SslChain& chain, const WeightedPair& pair,
            nn::PlanInputs& inputs) const {
    chain.featurizer->BindPlanInputs(encoded[pair.i], inputs);
    chain.featurizer->BindPlanInputs(encoded[pair.j], inputs);
    if (options.unsup_loss == UnsupLossKind::kCosine) {
      const float neg_weight = -pair.weight;
      inputs.AddStaged(&neg_weight, 1);
    }
    inputs.AddStaged(&pair.weight, 1);
  }
  nn::PlanCache& Plans(SslChain& chain) const { return chain.unsup_plans; }
  uint64_t PlanKey(const WeightedPair& pair) const {
    return (static_cast<uint64_t>(encoded[pair.i].words.size()) << 32) |
           static_cast<uint64_t>(encoded[pair.j].words.size());
  }
};

}  // namespace

SslTrainer::SslTrainer(HisRectFeaturizer* featurizer,
                       PoiClassifier* classifier, Embedder* embedder,
                       const SslTrainerOptions& options)
    : featurizer_(featurizer),
      classifier_(classifier),
      embedder_(embedder),
      options_(options) {
  CHECK(featurizer_ != nullptr);
  CHECK(classifier_ != nullptr);
  CHECK(!options_.use_embedding || embedder_ != nullptr)
      << "use_embedding requires an embedder";
  CHECK_GT(options_.batch_size, 0u);
}

SslTrainStats SslTrainer::Train(const std::vector<EncodedProfile>& encoded,
                                const data::DataSplit& split,
                                const geo::PoiSet& pois, util::Rng& rng) {
  SslTrainStats stats;
  util::Status status = Train(encoded, split, pois, rng, &stats);
  CHECK(status.ok()) << status.ToString();
  return stats;
}

util::Status SslTrainer::Train(const std::vector<EncodedProfile>& encoded,
                               const data::DataSplit& split,
                               const geo::PoiSet& pois, util::Rng& rng,
                               SslTrainStats* stats) {
  HISRECT_TRACE_SPAN("ssl.train");
  CHECK_EQ(encoded.size(), split.profiles.size());
  *stats = SslTrainStats{};

  // Affinity entries (positives / negatives / unlabeled-with-weight). The
  // build itself is sharded over the global pool; its output is invariant to
  // options_.affinity.num_shards and the thread count, so it sits outside
  // the trainer's (seed, num_shards) determinism surface.
  std::vector<WeightedPair> positives;
  std::vector<WeightedPair> negatives;
  std::vector<WeightedPair> unlabeled;
  for (const WeightedPair& pair :
       BuildAffinityPairs(split, pois, options_.affinity)) {
    if (pair.labeled && pair.weight > 0.0f) {
      positives.push_back(pair);
    } else if (pair.labeled) {
      negatives.push_back(pair);
    } else if (options_.use_unlabeled_pairs) {
      unlabeled.push_back(pair);
    }
  }

  // Optimizers: one for (F, P) on L_poi, one for (F, E) on L_u.
  std::vector<nn::NamedParameter> poi_params;
  featurizer_->CollectParameters("featurizer", poi_params);
  classifier_->CollectParameters("classifier", poi_params);
  nn::Adam poi_optimizer(poi_params, options_.adam);

  std::vector<nn::NamedParameter> unsup_params;
  featurizer_->CollectParameters("featurizer", unsup_params);
  if (options_.use_embedding) {
    embedder_->CollectParameters("embedder", unsup_params);
  }
  nn::Adam unsup_optimizer(unsup_params, options_.adam);

  // Checkpointed parameter set: the union of both optimizer lists with the
  // shared featurizer included once.
  std::vector<nn::NamedParameter> ckpt_params;
  featurizer_->CollectParameters("featurizer", ckpt_params);
  classifier_->CollectParameters("classifier", ckpt_params);
  if (options_.use_embedding) {
    embedder_->CollectParameters("embedder", ckpt_params);
  }

  const std::vector<size_t>& labeled = split.labeled_indices;
  CHECK(!labeled.empty()) << "SSL training requires labeled profiles";

  // Per-epoch pair pool: all positives + a pair_keep_fraction sample of
  // negatives and unlabeled (paper §6.1.2).
  std::vector<WeightedPair> pool;
  size_t pool_cursor = 0;
  auto refill_pool = [&] {
    pool.clear();
    pool.insert(pool.end(), positives.begin(), positives.end());
    auto sample_from = [&](const std::vector<WeightedPair>& source) {
      if (source.empty()) return;
      size_t keep = static_cast<size_t>(
          static_cast<double>(source.size()) * options_.pair_keep_fraction);
      keep = std::max<size_t>(keep, std::min<size_t>(source.size(), 1));
      for (size_t index : rng.SampleIndices(source.size(), keep)) {
        pool.push_back(source[index]);
      }
    };
    sample_from(negatives);
    sample_from(unlabeled);
    rng.Shuffle(pool);
    pool_cursor = 0;
  };
  refill_pool();
  auto next_pair = [&]() -> WeightedPair {
    if (pool_cursor >= pool.size()) refill_pool();
    return pool[pool_cursor++];
  };

  // Mixing ratio gamma_poi = |R_L| / (|R_L| + |Gamma_L u Gamma_U|)
  // (Algorithm 1, line 2), computed over the per-epoch pool (the sets the
  // batches are actually drawn from after the 1/10 subsampling), floored so
  // the POI classifier still receives enough supervised steps at small
  // scale.
  double gamma_poi =
      static_cast<double>(labeled.size()) /
      std::max(1.0,
               static_cast<double>(labeled.size()) +
                   static_cast<double>(pool.size()));
  gamma_poi = std::max(gamma_poi, options_.min_poi_step_fraction);
  // Degenerate guard: with no pairs at all, always take POI steps.
  if (pool.empty()) gamma_poi = 1.0;

  // Run-state counters; everything a checkpoint captures lives in
  // `ckpt_params`, the two optimizers, `rng`, `pool`/`pool_cursor`, and
  // these (plus poi_steps/pair_steps inside *stats).
  size_t step = 0;
  size_t tail_begin = options_.steps - options_.steps / 10;
  double tail_poi_loss = 0.0;
  uint64_t tail_poi_count = 0;
  double tail_unsup_loss = 0.0;
  uint64_t tail_unsup_count = 0;
  auto record_poi = [&](size_t at_step, double loss_value) {
    ++stats->poi_steps;
    if (at_step >= tail_begin) {
      tail_poi_loss += loss_value;
      ++tail_poi_count;
    }
  };
  auto record_unsup = [&](size_t at_step, double loss_value) {
    ++stats->pair_steps;
    if (at_step >= tail_begin) {
      tail_unsup_loss += loss_value;
      ++tail_unsup_count;
    }
  };

  const size_t batch_size = options_.batch_size;
  const float inv_batch = 1.0f / static_cast<float>(batch_size);
  const size_t num_shards =
      std::min(std::max<size_t>(options_.num_shards, 1), batch_size);

  // The full run state as an HRCT2 container (see JudgeTrainer for the
  // replay contract; the SSL run additionally carries both optimizers and
  // the mixing ratio).
  auto encode_state = [&]() -> std::string {
    util::CheckpointWriter writer;
    std::string meta;
    util::AppendPod<uint32_t>(meta, kSslCheckpointKind);
    util::AppendPod<uint8_t>(meta, options_.use_embedding ? 1 : 0);
    util::AppendPod<uint64_t>(meta, step);
    util::AppendPod<uint64_t>(meta, options_.steps);
    util::AppendPod<uint64_t>(meta, num_shards);
    util::AppendPod<uint64_t>(meta, batch_size);
    util::AppendPod<uint64_t>(meta, stats->poi_steps);
    util::AppendPod<uint64_t>(meta, stats->pair_steps);
    util::AppendPod<double>(meta, tail_poi_loss);
    util::AppendPod<uint64_t>(meta, tail_poi_count);
    util::AppendPod<double>(meta, tail_unsup_loss);
    util::AppendPod<uint64_t>(meta, tail_unsup_count);
    util::AppendPod<double>(meta, gamma_poi);
    writer.AddSection("meta", std::move(meta));
    writer.AddSection(nn::kParamsSection, nn::EncodeParameters(ckpt_params));
    std::string adam_poi;
    poi_optimizer.ExportState(&adam_poi);
    writer.AddSection("adam_poi", std::move(adam_poi));
    std::string adam_unsup;
    unsup_optimizer.ExportState(&adam_unsup);
    writer.AddSection("adam_unsup", std::move(adam_unsup));
    std::string rng_state;
    rng.SerializeState(&rng_state);
    writer.AddSection("rng", std::move(rng_state));
    std::string pool_state;
    util::AppendPod<uint64_t>(pool_state, pool_cursor);
    util::AppendPod<uint64_t>(pool_state, pool.size());
    for (const WeightedPair& pair : pool) {
      util::AppendPod<uint64_t>(pool_state, pair.i);
      util::AppendPod<uint64_t>(pool_state, pair.j);
      util::AppendPod<float>(pool_state, pair.weight);
      util::AppendPod<uint8_t>(pool_state, pair.labeled ? 1 : 0);
    }
    writer.AddSection("pool", std::move(pool_state));
    return writer.Encode();
  };

  auto decode_state =
      [&](const util::CheckpointReader& reader) -> util::Status {
    const std::string& source = reader.source();
    util::Result<std::string_view> meta = reader.Section("meta");
    if (!meta.ok()) return meta.status();
    util::ByteReader mr(meta.value());
    uint32_t kind = 0;
    uint8_t use_embedding = 0;
    uint64_t saved_step = 0, saved_steps = 0, saved_shards = 0,
             saved_batch = 0, saved_poi_steps = 0, saved_pair_steps = 0,
             saved_tail_poi_count = 0, saved_tail_unsup_count = 0;
    double saved_tail_poi_loss = 0.0, saved_tail_unsup_loss = 0.0,
           saved_gamma = 0.0;
    if (!mr.ReadPod(&kind) || !mr.ReadPod(&use_embedding) ||
        !mr.ReadPod(&saved_step) || !mr.ReadPod(&saved_steps) ||
        !mr.ReadPod(&saved_shards) || !mr.ReadPod(&saved_batch) ||
        !mr.ReadPod(&saved_poi_steps) || !mr.ReadPod(&saved_pair_steps) ||
        !mr.ReadPod(&saved_tail_poi_loss) ||
        !mr.ReadPod(&saved_tail_poi_count) ||
        !mr.ReadPod(&saved_tail_unsup_loss) ||
        !mr.ReadPod(&saved_tail_unsup_count) || !mr.ReadPod(&saved_gamma)) {
      return util::Status::IoError(source +
                                   ": truncated meta section at offset " +
                                   std::to_string(mr.offset()));
    }
    if (!mr.AtEnd()) {
      return util::Status::IoError(source + ": " +
                                   std::to_string(mr.remaining()) +
                                   " trailing bytes in meta section");
    }
    if (kind != kSslCheckpointKind) {
      return util::Status::InvalidArgument(
          source + ": not an ssl-trainer checkpoint (kind " +
          std::to_string(kind) + ")");
    }
    if (use_embedding != (options_.use_embedding ? 1 : 0) ||
        saved_steps != options_.steps || saved_shards != num_shards ||
        saved_batch != batch_size || saved_step > options_.steps) {
      return util::Status::InvalidArgument(
          source + ": checkpoint from an incompatible run (step " +
          std::to_string(saved_step) + "/" + std::to_string(saved_steps) +
          ", shards " + std::to_string(saved_shards) + ", batch " +
          std::to_string(saved_batch) + ", use_embedding " +
          std::to_string(use_embedding) + ")");
    }
    util::Result<std::string_view> params_section =
        reader.Section(nn::kParamsSection);
    if (!params_section.ok()) return params_section.status();
    util::Status status =
        nn::DecodeParameters(ckpt_params, params_section.value(), source);
    if (!status.ok()) return status;
    util::Result<std::string_view> poi_section = reader.Section("adam_poi");
    if (!poi_section.ok()) return poi_section.status();
    status = poi_optimizer.RestoreState(poi_section.value());
    if (!status.ok()) {
      return util::Status(status.code(), source + ": " + status.message());
    }
    util::Result<std::string_view> unsup_section =
        reader.Section("adam_unsup");
    if (!unsup_section.ok()) return unsup_section.status();
    status = unsup_optimizer.RestoreState(unsup_section.value());
    if (!status.ok()) {
      return util::Status(status.code(), source + ": " + status.message());
    }
    util::Result<std::string_view> rng_section = reader.Section("rng");
    if (!rng_section.ok()) return rng_section.status();
    if (!rng.DeserializeState(rng_section.value())) {
      return util::Status::IoError(source + ": malformed rng section");
    }
    util::Result<std::string_view> pool_section = reader.Section("pool");
    if (!pool_section.ok()) return pool_section.status();
    util::ByteReader pr(pool_section.value());
    uint64_t saved_cursor = 0, pool_size = 0;
    if (!pr.ReadPod(&saved_cursor) || !pr.ReadPod(&pool_size)) {
      return util::Status::IoError(source + ": truncated pool section header");
    }
    std::vector<WeightedPair> saved_pool;
    saved_pool.reserve(std::min<uint64_t>(pool_size, pr.remaining()));
    for (uint64_t i = 0; i < pool_size; ++i) {
      uint64_t pi = 0, pj = 0;
      float weight = 0.0f;
      uint8_t pair_labeled = 0;
      if (!pr.ReadPod(&pi) || !pr.ReadPod(&pj) || !pr.ReadPod(&weight) ||
          !pr.ReadPod(&pair_labeled)) {
        return util::Status::IoError(source + ": truncated pool entry " +
                                     std::to_string(i) + " at offset " +
                                     std::to_string(pr.offset()));
      }
      if (pi >= encoded.size() || pj >= encoded.size()) {
        return util::Status::InvalidArgument(
            source + ": pool entry " + std::to_string(i) +
            " references profile out of range");
      }
      WeightedPair pair;
      pair.i = static_cast<size_t>(pi);
      pair.j = static_cast<size_t>(pj);
      pair.weight = weight;
      pair.labeled = pair_labeled != 0;
      saved_pool.push_back(pair);
    }
    if (!pr.AtEnd()) {
      return util::Status::IoError(source + ": " +
                                   std::to_string(pr.remaining()) +
                                   " trailing bytes in pool section");
    }
    if (saved_cursor > saved_pool.size()) {
      return util::Status::InvalidArgument(source +
                                           ": pool cursor out of range");
    }
    // All sections validated; commit.
    pool = std::move(saved_pool);
    pool_cursor = static_cast<size_t>(saved_cursor);
    step = static_cast<size_t>(saved_step);
    stats->poi_steps = static_cast<size_t>(saved_poi_steps);
    stats->pair_steps = static_cast<size_t>(saved_pair_steps);
    tail_poi_loss = saved_tail_poi_loss;
    tail_poi_count = saved_tail_poi_count;
    tail_unsup_loss = saved_tail_unsup_loss;
    tail_unsup_count = saved_tail_unsup_count;
    gamma_poi = saved_gamma;
    poi_optimizer.ZeroGrad();
    unsup_optimizer.ZeroGrad();
    return util::Status::Ok();
  };

  TrainerCheckpointer checkpointer("ssl", options_.checkpoint, options_.guard,
                                   encode_state, decode_state);

  // Whatever way this run exits, keep its state for SaveCheckpoint.
  struct ExitCapture {
    std::function<void()> fn;
    ~ExitCapture() { fn(); }
  } exit_capture{[&] { last_run_state_ = encode_state(); }};

  const std::string explicit_resume =
      std::exchange(pending_resume_path_, std::string());
  bool resumed = false;
  util::Status status = checkpointer.Start(explicit_resume, &resumed);
  if (!status.ok()) return status;

  // ---- Chains: one per gradient shard (core/chain_runner.h) ----
  // Serial training is the one chain over the shared modules; sharded
  // training runs chain c on worker c's replicas. Recorded plans bind the
  // live parameter Nodes; CopyParameterValues and checkpoint restores
  // rewrite the matrices in place, so plans stay valid across steps,
  // rollbacks and resumes.
  std::vector<SslWorker> workers;
  std::vector<SslChain> chains(num_shards);
  if (num_shards <= 1) {
    chains[0].featurizer = featurizer_;
    chains[0].classifier = classifier_;
    chains[0].embedder = embedder_;
  } else {
    workers.resize(num_shards);
    for (size_t c = 0; c < num_shards; ++c) {
      SslWorker& worker = workers[c];
      worker.featurizer = featurizer_->Clone();
      worker.classifier = classifier_->Clone();
      worker.featurizer->CollectParameters("featurizer", worker.poi_params);
      worker.classifier->CollectParameters("classifier", worker.poi_params);
      worker.featurizer->CollectParameters("featurizer", worker.unsup_params);
      if (options_.use_embedding) {
        worker.embedder = embedder_->Clone();
        worker.embedder->CollectParameters("embedder", worker.unsup_params);
      }
      chains[c].featurizer = worker.featurizer.get();
      chains[c].classifier = worker.classifier.get();
      chains[c].embedder = worker.embedder.get();
    }
    poi_optimizer.ZeroGrad();
    unsup_optimizer.ZeroGrad();
  }
  const PoiLoss poi_loss{encoded};
  const UnsupLoss unsup_loss{encoded, options_};
  ChainRunner runner(options_.plan, batch_size);
  std::vector<size_t> poi_batch;
  std::vector<WeightedPair> pair_batch;
  auto draw_labeled = [&] { return labeled[rng.UniformInt(labeled.size())]; };

  // Prewarm: record every plan shape reachable from this run's data up
  // front, so the step loop itself allocates nothing. Plan structure does
  // not depend on the RNG or on parameter values, so a throwaway RNG is
  // fine here and the prewarm leaves the trajectory untouched. PlanFor
  // counts its one miss per shape in `hisrect.nn.plan_cache_misses` like
  // every other cache site.
  static obs::Counter* tensor_allocs =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.tensor_allocs");
  if (runner.planned()) {
    HISRECT_TRACE_SPAN("ssl.prewarm");
    std::map<uint64_t, size_t> poi_shapes;  // word count -> representative
    for (size_t index : labeled) {
      poi_shapes.emplace(poi_loss.PlanKey(index), index);
    }
    std::map<uint64_t, size_t> pair_shapes;
    auto note_pairs = [&](const std::vector<WeightedPair>& source) {
      for (const WeightedPair& pair : source) {
        pair_shapes.emplace(encoded[pair.i].words.size(), pair.i);
        pair_shapes.emplace(encoded[pair.j].words.size(), pair.j);
      }
    };
    note_pairs(positives);
    note_pairs(negatives);
    note_pairs(unlabeled);
    util::Rng warm_rng(0);
    for (SslChain& chain : chains) {
      for (const auto& shape : poi_shapes) {
        runner.PlanFor(poi_loss, chain, shape.second, warm_rng);
      }
      if (gamma_poi < 1.0) {
        for (const auto& shape_i : pair_shapes) {
          for (const auto& shape_j : pair_shapes) {
            const WeightedPair rep{shape_i.second, shape_j.second, 1.0f, false};
            runner.PlanFor(unsup_loss, chain, rep, warm_rng);
          }
        }
      }
    }
  }
  const int64_t allocs_after_prewarm = tensor_allocs->Value();

  // Telemetry: decile "epoch" windows over the step budget. Pure observers —
  // reads of losses/params only, no RNG draws — so the trained trajectory is
  // bitwise-identical with telemetry on or off (tests/determinism_test.cc).
  static obs::Histogram* step_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "hisrect.train.ssl_step_seconds", obs::TimeHistogramBoundaries());
  const size_t telemetry_every = std::max<size_t>(1, options_.steps / 10);
  double window_poi_loss = 0.0;
  double window_unsup_loss = 0.0;
  size_t window_poi_steps = 0;
  size_t window_unsup_steps = 0;
  util::Stopwatch window_watch;

  while (step < options_.steps) {
    HISRECT_TRACE_SPAN("ssl.step");
    obs::ScopedTimer step_timer(step_seconds);
    // All stochastic decisions happen on the coordinating thread, in sample
    // order (the step-kind draw first); see ChainRunner::Step.
    bool take_poi_step = rng.Uniform() < gamma_poi;
    std::vector<nn::NamedParameter>& active_params =
        take_poi_step ? poi_params : unsup_params;
    nn::Adam& active_optimizer = take_poi_step ? poi_optimizer : unsup_optimizer;
    for (SslWorker& worker : workers) {
      nn::CopyParameterValues(*featurizer_, *worker.featurizer);
      if (take_poi_step) {
        nn::CopyParameterValues(*classifier_, *worker.classifier);
      } else if (worker.embedder != nullptr) {
        nn::CopyParameterValues(*embedder_, *worker.embedder);
      }
    }
    const std::vector<float>& chain_losses =
        take_poi_step
            ? runner.Step(poi_loss, chains, inv_batch, rng, draw_labeled,
                          poi_batch)
            : runner.Step(unsup_loss, chains,
                          options_.unsup_weight * inv_batch, rng, next_pair,
                          pair_batch);
    const double loss_value =
        workers.empty()
            ? chain_losses[0]
            : ReduceChains(chain_losses, active_params,
                           [&](size_t c) -> std::vector<nn::NamedParameter>& {
                             return take_poi_step ? workers[c].poi_params
                                                  : workers[c].unsup_params;
                           });

    if (util::FailPoint::ShouldFail("trainer.nan_grad")) {
      active_params.front().tensor.mutable_grad().data()[0] =
          std::numeric_limits<float>::quiet_NaN();
    }
    if (options_.guard.enabled &&
        (!std::isfinite(loss_value) ||
         !std::isfinite(GradNormSquared(active_params)))) {
      float lr_scale = 1.0f;
      status = checkpointer.Rollback(
          "non-finite loss or gradient at ssl step " + std::to_string(step),
          &lr_scale);
      if (!status.ok()) return status;
      stats->rollbacks = checkpointer.rollbacks();
      // Both optimizers share the featurizer; cool both down.
      poi_optimizer.ScaleLearningRate(lr_scale);
      unsup_optimizer.ScaleLearningRate(lr_scale);
      poi_optimizer.ZeroGrad();
      unsup_optimizer.ZeroGrad();
      continue;
    }

    const bool emit_telemetry =
        obs::TelemetrySink::enabled() &&
        ((step + 1) % telemetry_every == 0 || step + 1 == options_.steps);
    // Adam::Step() zeroes gradients, so read the norm before stepping;
    // skipped entirely when the sink is closed.
    const double telemetry_grad_norm =
        emit_telemetry ? std::sqrt(GradNormSquared(active_params)) : 0.0;
    active_optimizer.Step();
    if (take_poi_step) {
      record_poi(step, loss_value);
      window_poi_loss += loss_value;
      ++window_poi_steps;
    } else {
      record_unsup(step, loss_value);
      window_unsup_loss += loss_value;
      ++window_unsup_steps;
    }
    ++step;
    if (emit_telemetry) {
      const double window_seconds =
          std::max(window_watch.ElapsedSeconds(), 1e-9);
      const size_t window_steps = window_poi_steps + window_unsup_steps;
      obs::TelemetryRecord record("epoch");
      record.Set("phase", "ssl")
          .Set("epoch", static_cast<uint64_t>((step + telemetry_every - 1) /
                                              telemetry_every))
          .Set("step", static_cast<uint64_t>(step))
          .Set("steps_total", static_cast<uint64_t>(options_.steps))
          .Set("loss",
               window_steps == 0
                   ? 0.0
                   : (window_poi_loss + window_unsup_loss) /
                         static_cast<double>(window_steps))
          .Set("grad_norm", telemetry_grad_norm)
          .Set("lr",
               static_cast<double>(poi_optimizer.current_learning_rate()))
          .Set("rollbacks", static_cast<uint64_t>(checkpointer.rollbacks()))
          .Set("poi_steps", static_cast<uint64_t>(window_poi_steps))
          .Set("pair_steps", static_cast<uint64_t>(window_unsup_steps));
      if (window_poi_steps > 0) {
        record.Set("poi_loss",
                   window_poi_loss / static_cast<double>(window_poi_steps));
      }
      if (window_unsup_steps > 0) {
        record.Set("unsup_loss", window_unsup_loss /
                                     static_cast<double>(window_unsup_steps));
      }
      record
          .Set("pairs", static_cast<uint64_t>(window_steps * batch_size))
          .Set("pairs_per_sec", static_cast<double>(window_steps * batch_size) /
                                    window_seconds)
          .Set("window_seconds", window_seconds);
      obs::TelemetrySink::Emit(record);
      window_poi_loss = 0.0;
      window_unsup_loss = 0.0;
      window_poi_steps = 0;
      window_unsup_steps = 0;
      window_watch.Restart();
    }
    status = checkpointer.AfterStep(step, loss_value);
    if (!status.ok()) return status;
    if (util::FailPoint::ShouldFail("trainer.abort")) {
      return util::Status::Internal(
          "injected failure: trainer.abort after ssl step " +
          std::to_string(step));
    }
  }

  stats->steady_tensor_allocs = tensor_allocs->Value() - allocs_after_prewarm;

  double final_poi =
      tail_poi_count > 0 ? tail_poi_loss / static_cast<double>(tail_poi_count)
                         : 0.0;
  status = checkpointer.Finish(step, final_poi);
  if (!status.ok()) return status;

  stats->final_poi_loss = final_poi;
  stats->final_unsup_loss =
      tail_unsup_count > 0
          ? tail_unsup_loss / static_cast<double>(tail_unsup_count)
          : 0.0;
  return util::Status::Ok();
}

util::Status SslTrainer::SaveCheckpoint(const std::string& path) const {
  if (last_run_state_.empty()) {
    return util::Status::FailedPrecondition(
        "no ssl training run to checkpoint; call Train first");
  }
  return util::WriteFileAtomic(path, last_run_state_);
}

util::Status SslTrainer::ResumeFromCheckpoint(const std::string& path) {
  util::Result<util::CheckpointReader> reader =
      util::CheckpointReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  pending_resume_path_ = path;
  return util::Status::Ok();
}

}  // namespace hisrect::core
