// serve::ShardRouter tests (DESIGN.md §15): routing stability and spread,
// bitwise score parity with the single-server path, the per-shard Ticket
// contract (cancel / deadline / shed), drain accounting, all-or-nothing
// fleet deploys through serve::ModelRegistry, trace accounting summed over
// shards, and the fleet-merged introspection surfaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hisrect_model.h"
#include "obs/metrics.h"
#include "serve/introspection.h"
#include "serve/judgement_server.h"
#include "serve/model_registry.h"
#include "serve/shard_router.h"
#include "serve/stage_trace.h"
#include "tests/test_common.h"
#include "util/fail_point.h"

namespace hisrect::serve {
namespace {

using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

core::HisRectModelConfig FastConfig() {
  core::HisRectModelConfig config;
  config.featurizer.hidden_dim = 6;
  config.featurizer.feature_dim = 12;
  config.ssl.steps = 200;
  config.ssl.batch_size = 4;
  config.judge_trainer.steps = 200;
  config.judge_trainer.batch_size = 4;
  return config;
}

// One fitted model (and one saved checkpoint for the fleet-deploy tests)
// for the whole suite — fitting dominates test time.
class ShardRouterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TinyDataset());
    text_model_ = new core::TextModel(TinyTextModel(*dataset_));
    model_ = new core::HisRectModel(FastConfig());
    model_->Fit(*dataset_, *text_model_);
    checkpoint_dir_ =
        new std::string(::testing::TempDir() + "shard_router_test/");
    std::filesystem::remove_all(*checkpoint_dir_);
    std::filesystem::create_directories(*checkpoint_dir_);
    checkpoint_path_ = new std::string(*checkpoint_dir_ + "model.bin");
    ASSERT_TRUE(model_->Save(*checkpoint_path_).ok());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*checkpoint_dir_);
    delete checkpoint_path_;
    delete checkpoint_dir_;
    delete model_;
    delete text_model_;
    delete dataset_;
    checkpoint_path_ = nullptr;
    checkpoint_dir_ = nullptr;
    model_ = nullptr;
    text_model_ = nullptr;
    dataset_ = nullptr;
  }

  void TearDown() override { util::FailPoint::DisarmAll(); }

  static JudgementRequest RequestFor(size_t i, size_t j,
                                     Priority priority = Priority::kInteractive,
                                     uint64_t timeout_us = 0) {
    JudgementRequest request;
    request.a = dataset_->test.profiles[i % dataset_->test.profiles.size()];
    request.b = dataset_->test.profiles[j % dataset_->test.profiles.size()];
    request.priority = priority;
    request.timeout_us = timeout_us;
    return request;
  }

  static RegistryOptions FastRegistryOptions() {
    RegistryOptions options;
    options.model_config = FastConfig();
    options.warmup_pairs = 4;
    return options;
  }

  static data::Dataset* dataset_;
  static core::TextModel* text_model_;
  static core::HisRectModel* model_;
  static std::string* checkpoint_dir_;
  static std::string* checkpoint_path_;
};

data::Dataset* ShardRouterFixture::dataset_ = nullptr;
core::TextModel* ShardRouterFixture::text_model_ = nullptr;
core::HisRectModel* ShardRouterFixture::model_ = nullptr;
std::string* ShardRouterFixture::checkpoint_dir_ = nullptr;
std::string* ShardRouterFixture::checkpoint_path_ = nullptr;

// ---------------------------------------------------------------------------
// Routing: symmetric, deterministic, and spread across shards.

TEST_F(ShardRouterFixture, PairHashSymmetricDeterministicAndSpread) {
  EXPECT_EQ(ShardRouter::PairHash(3, 17), ShardRouter::PairHash(17, 3));
  EXPECT_EQ(ShardRouter::PairHash(0, 0), ShardRouter::PairHash(0, 0));
  EXPECT_NE(ShardRouter::PairHash(1, 2), ShardRouter::PairHash(1, 3));

  RouterOptions options;
  options.num_shards = 4;
  ShardRouter router(model_, options);
  ASSERT_EQ(router.num_shards(), 4u);

  std::vector<size_t> hits(router.num_shards(), 0);
  for (data::UserId a = 0; a < 128; ++a) {
    for (data::UserId b = a + 1; b < a + 33; ++b) {
      const size_t shard = router.ShardFor(a, b);
      EXPECT_EQ(shard, router.ShardFor(b, a));
      ASSERT_LT(shard, hits.size());
      ++hits[shard];
    }
  }
  // 4096 pairs over 4 shards: a uniform hash puts ~1024 on each; accept
  // anything within 2x of fair share either way.
  for (size_t shard = 0; shard < hits.size(); ++shard) {
    EXPECT_GE(hits[shard], 512u) << "shard " << shard << " starved";
    EXPECT_LE(hits[shard], 2048u) << "shard " << shard << " overloaded";
  }
  router.Shutdown();
}

// ---------------------------------------------------------------------------
// Golden contract: routing changes where a pair is scored, never how.

TEST_F(ShardRouterFixture, RoutedScoresBitwiseMatchSingleServer) {
  ServeOptions serve_options;
  serve_options.batch_size = 3;  // Forces multiple partial + full batches.
  serve_options.max_wait_us = 1000;
  JudgementServer single(model_, serve_options);
  RouterOptions router_options;
  router_options.num_shards = 4;
  router_options.shard_options = serve_options;
  ShardRouter router(model_, router_options);

  const size_t pairs = 12;
  std::vector<Ticket> single_tickets;
  std::vector<Ticket> routed_tickets;
  for (size_t i = 0; i < pairs; ++i) {
    auto a = single.Submit(RequestFor(i, i + 2));
    auto b = router.Submit(RequestFor(i, i + 2));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    single_tickets.push_back(std::move(a).value());
    routed_tickets.push_back(std::move(b).value());
  }
  for (size_t i = 0; i < pairs; ++i) {
    util::Result<Response> want = single_tickets[i].future().get();
    util::Result<Response> got = routed_tickets[i].future().get();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    hisrect::testing::ExpectBitwiseEqual(
        got.value().judgement.score, want.value().judgement.score,
        "routed score [" + std::to_string(i) + "]");
    EXPECT_EQ(got.value().judgement.co_located,
              want.value().judgement.co_located);
  }
  single.Shutdown();
  router.Shutdown();
  EXPECT_EQ(router.stats().completed, pairs);
}

// ---------------------------------------------------------------------------
// The Ticket contract holds per shard: cancel, deadline, per-class shed.

TEST_F(ShardRouterFixture, CancelWorksThroughRouterTicket) {
  RouterOptions options;
  options.num_shards = 3;
  options.shard_options.batch_size = 4096;          // Parked batcher: nothing
  options.shard_options.max_wait_us = 30'000'000;   // flushes on its own.
  ShardRouter router(model_, options);

  auto result = router.Submit(RequestFor(0, 1));
  ASSERT_TRUE(result.ok());
  Ticket ticket = std::move(result).value();
  EXPECT_TRUE(ticket.Cancel());
  util::Result<Response> response = ticket.future().get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kCancelled);
  router.Shutdown();
  EXPECT_EQ(router.stats().cancelled, 1u);
  EXPECT_EQ(router.stats().completed, 0u);
}

TEST_F(ShardRouterFixture, DeadlineExpiresThroughRouterTicket) {
  RouterOptions options;
  options.num_shards = 2;
  options.shard_options.batch_size = 4096;  // Timeout flush only.
  options.shard_options.max_wait_us = 2000;
  ShardRouter router(model_, options);

  auto result = router.Submit(RequestFor(0, 1, Priority::kInteractive,
                                         /*timeout_us=*/1));
  ASSERT_TRUE(result.ok());
  Ticket ticket = std::move(result).value();
  util::Result<Response> response = ticket.future().get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kDeadlineExceeded);
  router.Shutdown();
  EXPECT_EQ(router.stats().expired, 1u);
}

TEST_F(ShardRouterFixture, PerShardShedAndDrainAccounting) {
  RouterOptions options;
  options.num_shards = 4;
  options.shard_options.batch_size = 4096;         // Parked batcher: queues
  options.shard_options.max_wait_us = 30'000'000;  // fill deterministically.
  options.shard_options.max_queue = 2;             // Per-shard bound.
  ShardRouter router(model_, options);

  // Far more distinct pairs than fleet capacity (4 shards x 2 slots): each
  // shard sheds independently once its own queue is full.
  std::vector<Ticket> admitted;
  size_t rejected = 0;
  for (size_t i = 0; i < 64; ++i) {
    auto result = router.Submit(RequestFor(2 * i, 2 * i + 1));
    if (result.ok()) {
      admitted.push_back(std::move(result).value());
    } else {
      EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(admitted.size(), 8u);  // Exactly the fleet queue capacity.
  EXPECT_EQ(rejected, 56u);
  for (size_t shard = 0; shard < router.num_shards(); ++shard) {
    EXPECT_EQ(router.shard(shard).stats().admitted, 2u)
        << "shard " << shard << " admitted past its own bound";
  }

  // Drain resolves every admitted future exactly once, and the fleet books
  // balance: admitted == completed + cancelled + expired + aborted.
  router.Shutdown();
  for (Ticket& ticket : admitted) {
    ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    util::Result<Response> response = ticket.future().get();
    ASSERT_TRUE(response.ok());
  }
  const JudgementServer::Stats stats = router.stats();
  EXPECT_EQ(stats.admitted, 8u);
  EXPECT_EQ(stats.rejected, 56u);
  EXPECT_EQ(stats.admitted,
            stats.completed + stats.cancelled + stats.expired + stats.aborted);
  EXPECT_EQ(router.queue_depth(), 0u);
  EXPECT_FALSE(router.accepting());

  auto late = router.Submit(RequestFor(0, 1));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);
}

// hisrect.serve.queue_depth is one process-wide series. Every shard adds its
// own admissions and subtracts its own pops and cancellations, so under a
// router the gauge reads the fleet's pending count, not whichever shard
// wrote last.
TEST_F(ShardRouterFixture, QueueDepthGaugeCountsEveryShard) {
  obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("hisrect.serve.queue_depth");
  RouterOptions options;
  options.num_shards = 2;
  options.shard_options.batch_size = 4096;         // Parked batchers: queues
  options.shard_options.max_wait_us = 30'000'000;  // hold until Shutdown.
  ShardRouter router(model_, options);
  EXPECT_EQ(gauge->Value(), 0);

  // Unequal depths, so no single shard's count equals the fleet's.
  const size_t want[2] = {3, 2};
  size_t queued[2] = {0, 0};
  std::vector<Ticket> tickets;
  for (size_t i = 0; queued[0] < want[0] || queued[1] < want[1]; ++i) {
    ASSERT_LT(i, 1000u) << "no pair routed to one of the shards";
    JudgementRequest request = RequestFor(i, i + 1);
    const size_t shard = router.ShardFor(request.a.uid, request.b.uid);
    if (queued[shard] == want[shard]) continue;
    auto result = router.Submit(std::move(request));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    tickets.push_back(std::move(result).value());
    ++queued[shard];
  }
  ASSERT_EQ(router.queue_depth(), 5u);
  EXPECT_EQ(gauge->Value(), static_cast<int64_t>(router.queue_depth()));

  ASSERT_TRUE(tickets.front().Cancel());
  ASSERT_EQ(router.queue_depth(), 4u);
  EXPECT_EQ(gauge->Value(), static_cast<int64_t>(router.queue_depth()));

  router.Shutdown();
  for (Ticket& ticket : tickets) {
    ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(router.queue_depth(), 0u);
  EXPECT_EQ(gauge->Value(), 0);
}

// ---------------------------------------------------------------------------
// Fleet deploys: all-or-nothing, with full rollback on one shard's failure.

TEST_F(ShardRouterFixture, FleetDeployAllOrNothingRollsBackOnWarmupFailure) {
  ModelRegistry registry(dataset_, text_model_, FastRegistryOptions());
  RouterOptions options;
  options.num_shards = 3;
  options.shard_options.batch_size = 2;
  options.shard_options.max_wait_us = 1000;
  ShardRouter router(model_, options);
  registry.Attach(&router);

  // First fleet deploy: one instance per shard, all published as v1.
  auto v1 = registry.Deploy(*checkpoint_path_);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1.value(), 1u);
  for (uint64_t version : router.model_versions()) EXPECT_EQ(version, 1u);
  // Per-shard instances: distinct models behind the shards.
  EXPECT_NE(router.shard(0).model().get(), router.shard(1).model().get());

  // Second deploy fails warming up the *second* shard's instance: nothing
  // may be published anywhere — no mixed-version steady state.
  obs::Counter* rollbacks = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.serve.swap_rollbacks");
  const uint64_t rollbacks_before = rollbacks->Value();
  util::FailPoint::Arm("registry.shard_warmup_fail", 2);
  auto failed = registry.Deploy(*checkpoint_path_);
  util::FailPoint::Disarm("registry.shard_warmup_fail");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(rollbacks->Value(), rollbacks_before + 1);
  EXPECT_EQ(registry.current_version(), 1u);
  for (uint64_t version : router.model_versions()) {
    EXPECT_EQ(version, 1u) << "failed fleet deploy left a shard swapped";
  }

  // The incumbent keeps serving through the failed deploy...
  auto mid = router.Submit(RequestFor(0, 2));
  ASSERT_TRUE(mid.ok());
  util::Result<Response> mid_response = std::move(mid).value().future().get();
  ASSERT_TRUE(mid_response.ok());
  EXPECT_EQ(mid_response.value().model_version, 1u);

  // ...and a clean redeploy publishes v2 to every shard.
  auto v2 = registry.Deploy(*checkpoint_path_);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2.value(), 2u);
  for (uint64_t version : router.model_versions()) EXPECT_EQ(version, 2u);
  auto after = router.Submit(RequestFor(1, 3));
  ASSERT_TRUE(after.ok());
  util::Result<Response> response = std::move(after).value().future().get();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().model_version, 2u);
  hisrect::testing::ExpectBitwiseEqual(
      response.value().judgement.score,
      model_->ScorePair(dataset_->test.profiles[1], dataset_->test.profiles[3]),
      "redeployed fleet score");

  router.Shutdown();
  registry.Detach();
}

// ---------------------------------------------------------------------------
// Trace accounting across the fleet (satellite: latency bookkeeping).

TEST_F(ShardRouterFixture, TraceAccountingSumsAcrossShards) {
  RouterOptions options;
  options.num_shards = 3;
  options.shard_options.batch_size = 4;
  options.shard_options.max_wait_us = 1000;
  // The ring stripes 8 ways by thread and each shard's batcher is a single
  // thread, so one stripe must hold the shard's full load: capacity/8 >= 24.
  options.shard_options.stage_trace_capacity = 512;
  ShardRouter router(model_, options);

  const size_t pairs = 24;
  std::vector<Ticket> tickets;
  std::vector<std::chrono::steady_clock::time_point> submitted;
  for (size_t i = 0; i < pairs; ++i) {
    submitted.push_back(std::chrono::steady_clock::now());
    auto result = router.Submit(RequestFor(i, i + 3));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  std::vector<double> measured(pairs, 0.0);
  for (size_t i = 0; i < pairs; ++i) {
    util::Result<Response> response = tickets[i].future().get();
    ASSERT_TRUE(response.ok());
    measured[i] = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - submitted[i])
                      .count();
  }
  router.Shutdown();

  // Every admitted request is traced exactly once, summed over shards.
  uint64_t recorded = 0;
  for (size_t shard = 0; shard < router.num_shards(); ++shard) {
    const StageTraceBuffer* traces = router.shard(shard).stage_traces();
    ASSERT_NE(traces, nullptr);
    recorded += traces->recorded();
  }
  EXPECT_EQ(recorded, router.stats().admitted);
  EXPECT_EQ(recorded, pairs);

  // Stage sums telescope: within 1% of the server-measured total, and the
  // total never exceeds what the client measured through the router hop.
  const double slowest_measured =
      *std::max_element(measured.begin(), measured.end());
  size_t checked = 0;
  for (size_t shard = 0; shard < router.num_shards(); ++shard) {
    for (const StageTrace& trace :
         router.shard(shard).stage_traces()->Recent(64)) {
      ASSERT_EQ(trace.outcome, StageTrace::Outcome::kScored);
      EXPECT_NEAR(trace.StageSum(), trace.total_seconds,
                  0.01 * trace.total_seconds + 1e-6);
      EXPECT_LE(trace.total_seconds, slowest_measured + 1e-3);
      ++checked;
    }
  }
  EXPECT_EQ(checked, pairs);
}

// ---------------------------------------------------------------------------
// Fleet-merged introspection: totals plus per-shard breakdowns.

TEST_F(ShardRouterFixture, IntrospectionServesFleetStatuszAndTracez) {
  RouterOptions options;
  options.num_shards = 2;
  options.shard_options.batch_size = 4;
  options.shard_options.max_wait_us = 1000;
  options.shard_options.stage_trace_capacity = 64;
  options.shard_options.stats_window_s = 10.0;
  ShardRouter router(model_, options);
  ServerIntrospection introspection(&router);

  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 8; ++i) {
    auto result = router.Submit(RequestFor(i, i + 1));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  for (Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.future().get().ok());
  }

  obs::AdminResponse statusz = introspection.Statusz();
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"router\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"shards\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"routed\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"saturated\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"stats\""), std::string::npos);

  obs::AdminResponse tracez = introspection.Tracez("");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"shard\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"recorded\": 8"), std::string::npos);

  obs::AdminResponse healthz = introspection.Healthz();
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\": \"ok\""), std::string::npos);
  router.Shutdown();
  // Every shard stopped accepting: the fleet health flips to draining.
  EXPECT_NE(introspection.Healthz().body.find("\"status\": \"draining\""),
            std::string::npos);
}

}  // namespace
}  // namespace hisrect::serve
