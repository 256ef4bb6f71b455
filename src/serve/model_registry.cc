#include "serve/model_registry.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/shard_router.h"
#include "util/fail_point.h"
#include "util/logging.h"

namespace hisrect::serve {

namespace {

obs::Counter* SwapRollbacksCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.swap_rollbacks");
  return counter;
}

}  // namespace

ModelRegistry::ModelRegistry(const data::Dataset* dataset,
                             const core::TextModel* text_model,
                             RegistryOptions options)
    : dataset_(dataset), text_model_(text_model), options_(options) {
  CHECK(dataset_ != nullptr);
  CHECK(text_model_ != nullptr);
  CHECK_GE(options_.keep_versions, 1u);
}

void ModelRegistry::Attach(JudgementServer* server) {
  std::lock_guard<std::mutex> lock(mu_);
  server_ = server;
  router_ = nullptr;
  if (server_ != nullptr && !entries_.empty()) {
    PublishLocked(entries_.back());
  }
}

void ModelRegistry::Attach(ShardRouter* router) {
  std::lock_guard<std::mutex> lock(mu_);
  router_ = router;
  server_ = nullptr;
  if (router_ != nullptr && !entries_.empty()) {
    PublishLocked(entries_.back());
  }
}

void ModelRegistry::Detach() {
  std::lock_guard<std::mutex> lock(mu_);
  server_ = nullptr;
  router_ = nullptr;
}

void ModelRegistry::PublishLocked(const Entry& entry) {
  if (router_ != nullptr) {
    if (!entry.shard_models.empty()) {
      // Fleet entry: each shard gets its own warmed instance (own encoder
      // cache). All instances loaded from the same checkpoint, so served
      // scores stay bitwise-identical across shards.
      for (size_t i = 0; i < router_->num_shards(); ++i) {
        router_->shard(i).SwapModel(
            entry.shard_models[i % entry.shard_models.size()], entry.version);
      }
    } else {
      // Single-instance entry (deployed before the router was attached):
      // every shard shares it.
      router_->SwapModel(entry.model, entry.version);
    }
  } else if (server_ != nullptr) {
    server_->SwapModel(entry.model, entry.version);
  }
}

util::Status ModelRegistry::WarmUp(const core::HisRectModel& model) const {
  HISRECT_TRACE_SPAN("serve.registry.warmup");
  const std::vector<data::Profile>& pool = dataset_->test.profiles;
  if (options_.warmup_pairs == 0 || pool.size() < 2) {
    return util::Status::Ok();
  }
  // Same (i, i*7+3) pairing walk the serving bench and CLI use, so a warmed
  // model has recorded exactly the shapes live traffic replays, and its
  // encoder cache holds the working set.
  for (size_t i = 0; i < options_.warmup_pairs; ++i) {
    const data::Profile& a = pool[i % pool.size()];
    const data::Profile& b = pool[(i * 7 + 3) % pool.size()];
    const double score = model.ScorePair(a, b);
    if (!std::isfinite(score) || score < 0.0 || score > 1.0) {
      return util::Status::Internal(
          "warmup pair " + std::to_string(i) +
          " scored " + std::to_string(score) +
          " — refusing to publish a model that does not emit probabilities");
    }
  }
  return util::Status::Ok();
}

util::Result<std::shared_ptr<const core::HisRectModel>>
ModelRegistry::LoadAndWarm(const std::string& path, size_t shard) const {
  if (util::FailPoint::ShouldFail("registry.shard_warmup_fail")) {
    return util::Status::Internal(
        "injected warmup failure (registry.shard_warmup_fail) on shard " +
        std::to_string(shard));
  }
  auto model = std::make_unique<core::HisRectModel>(options_.model_config);
  model->InitializeForLoad(*dataset_, *text_model_);
  util::Status status = model->Load(path);  // HRCT2: CRC-verified, strict.
  if (!status.ok()) return status;
  status = WarmUp(*model);
  if (!status.ok()) return status;
  return std::shared_ptr<const core::HisRectModel>(std::move(model));
}

util::Result<uint64_t> ModelRegistry::Deploy(const std::string& path) {
  HISRECT_TRACE_SPAN("serve.swap");
  // Everything up to publication runs off the serving hot path: the
  // attached server / fleet keeps scoring on the current version while the
  // new instances load and warm.
  auto fail = [&](util::Status status) -> util::Result<uint64_t> {
    SwapRollbacksCounter()->Increment();
    LOG(WARNING) << "registry: deploy of " << path
                 << " rolled back: " << status.ToString();
    return status;
  };
  if (util::FailPoint::ShouldFail("registry.corrupt_load")) {
    return fail(util::Status::IoError(
        "injected corrupt checkpoint (registry.corrupt_load): " + path));
  }
  // Snapshot the fleet width without holding mu_ through the loads. A
  // concurrent re-Attach mid-deploy can change it; PublishLocked re-reads
  // the attachment at publication time and maps instances modulo the list.
  size_t instances = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (router_ != nullptr) instances = router_->num_shards();
  }
  // Stage-then-publish: every instance must load and warm before any shard
  // sees the new version. One shard's failure aborts the whole deploy with
  // the incumbent still serving everywhere — all-or-nothing, never mixed.
  std::vector<std::shared_ptr<const core::HisRectModel>> staged;
  staged.reserve(instances);
  for (size_t shard = 0; shard < instances; ++shard) {
    auto loaded = LoadAndWarm(path, shard);
    if (!loaded.ok()) return fail(loaded.status());
    staged.push_back(std::move(loaded).value());
  }

  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.version = next_version_++;
  entry.path = path;
  entry.model = staged.front();
  if (staged.size() > 1 || router_ != nullptr) {
    entry.shard_models = std::move(staged);
  }
  entries_.push_back(std::move(entry));
  // Retain keep_versions + the incumbent: drop from the front (oldest).
  while (entries_.size() > std::max<size_t>(options_.keep_versions, 1)) {
    entries_.erase(entries_.begin());
  }
  PublishLocked(entries_.back());
  LOG(INFO) << "registry: published " << path << " as v"
            << entries_.back().version
            << (entries_.back().shard_models.empty()
                    ? ""
                    : " (fleet of " +
                          std::to_string(entries_.back().shard_models.size()) +
                          ")");
  return entries_.back().version;
}

util::Status ModelRegistry::Rollback() {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() < 2) {
    return util::Status::FailedPrecondition(
        "no previous model version retained to roll back to");
  }
  const Entry dropped = std::move(entries_.back());
  entries_.pop_back();
  SwapRollbacksCounter()->Increment();
  PublishLocked(entries_.back());
  LOG(WARNING) << "registry: rolled back v" << dropped.version << " ("
               << dropped.path << ") to v" << entries_.back().version;
  return util::Status::Ok();
}

std::shared_ptr<const core::HisRectModel> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty() ? nullptr : entries_.back().model;
}

uint64_t ModelRegistry::current_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty() ? 0 : entries_.back().version;
}

size_t ModelRegistry::num_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace hisrect::serve
