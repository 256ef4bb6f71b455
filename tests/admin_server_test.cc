// Live introspection plane (DESIGN.md §14): obs::AdminServer endpoint
// behavior over real loopback sockets, serve::ServerIntrospection surfaces,
// per-request stage-trace accounting, windowed-histogram decay under an
// injected clock, and the admin.slow_scrape proof that a stalled admin
// client never blocks the batcher.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hisrect_model.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serve/introspection.h"
#include "serve/judgement_server.h"
#include "serve/stage_trace.h"
#include "tests/test_common.h"
#include "util/fail_point.h"

namespace hisrect::serve {
namespace {

using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

// ---------------------------------------------------------------------------
// Minimal HTTP client: the tests exercise the real socket path.

struct HttpResult {
  bool ok = false;
  int status = 0;
  std::string content_type;
  std::string body;
};

HttpResult Get(uint16_t port, const std::string& target,
               const std::string& method = "GET") {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request = method + " " + target + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return result;
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return result;
  result.status = std::atoi(response.c_str() + 9);
  const size_t ct = response.find("Content-Type: ");
  if (ct != std::string::npos && ct < head_end) {
    const size_t eol = response.find("\r\n", ct);
    result.content_type = response.substr(ct + 14, eol - ct - 14);
  }
  result.body = response.substr(head_end + 4);
  result.ok = true;
  return result;
}

// ---------------------------------------------------------------------------
// AdminServer endpoint behavior (no JudgementServer needed).

TEST(AdminServerTest, ServesRegisteredHandlerAndBuiltinMetrics) {
  obs::AdminServer admin;
  admin.Handle("/hello", [](const std::string& query) {
    obs::AdminResponse response;
    response.body = "{\"query\": \"" + query + "\"}";
    return response;
  });
  ASSERT_TRUE(admin.Start(0).ok());
  ASSERT_GT(admin.port(), 0);

  HttpResult hello = Get(admin.port(), "/hello?x=1");
  ASSERT_TRUE(hello.ok);
  EXPECT_EQ(hello.status, 200);
  EXPECT_EQ(hello.body, "{\"query\": \"x=1\"}");
  EXPECT_NE(hello.content_type.find("application/json"), std::string::npos);

  // Built-in /metrics scrapes the global registry as JSON...
  obs::MetricsRegistry::Global().GetCounter("hisrect.test.admin_series")
      ->Add(7);
  HttpResult metrics = Get(admin.port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"hisrect.test.admin_series\""),
            std::string::npos);
  // ...and as Prometheus text with ?format=prom (sanitized names).
  HttpResult prom = Get(admin.port(), "/metrics?format=prom");
  ASSERT_TRUE(prom.ok);
  EXPECT_NE(prom.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(prom.body.find("# TYPE hisrect_test_admin_series counter"),
            std::string::npos);

  HttpResult missing = Get(admin.port(), "/nope");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);

  HttpResult post = Get(admin.port(), "/hello", "POST");
  ASSERT_TRUE(post.ok);
  EXPECT_EQ(post.status, 400);

  EXPECT_GE(admin.requests_served(), 5u);
  admin.Stop();
  EXPECT_FALSE(admin.running());
  admin.Stop();  // Idempotent.
}

TEST(AdminServerTest, EphemeralPortsAreIndependent) {
  obs::AdminServer a;
  obs::AdminServer b;
  ASSERT_TRUE(a.Start(0).ok());
  ASSERT_TRUE(b.Start(0).ok());
  EXPECT_NE(a.port(), b.port());
  EXPECT_FALSE(a.Start(0).ok());  // Already running.
}

// Regression (satellite: signal handling): repeated SIGHUPs during an
// active scrape stream must never break a poll. The handler is installed
// WITHOUT SA_RESTART, so every delivery surfaces EINTR from whatever
// syscall the admin thread is blocked in — accept, recv, or send — and the
// loops must retry. SIGHUP is blocked on every other thread so each
// delivery lands on the admin thread specifically.
TEST(AdminServerTest, SurvivesRepeatedSighupUnderActiveScrape) {
  obs::AdminServer admin;
  ASSERT_TRUE(admin.Start(0).ok());  // Admin thread inherits SIGHUP unblocked.

  struct sigaction noop_action;
  struct sigaction old_action;
  std::memset(&noop_action, 0, sizeof(noop_action));
  noop_action.sa_handler = [](int) {};
  sigemptyset(&noop_action.sa_mask);
  noop_action.sa_flags = 0;  // Deliberately no SA_RESTART.
  ASSERT_EQ(sigaction(SIGHUP, &noop_action, &old_action), 0);

  // Block SIGHUP here (and in the sender thread, which inherits the mask):
  // the admin thread is the only delivery target left.
  sigset_t block_hup;
  sigset_t old_mask;
  sigemptyset(&block_hup);
  sigaddset(&block_hup, SIGHUP);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &block_hup, &old_mask), 0);

  std::atomic<bool> stop{false};
  std::thread sender([&stop] {
    while (!stop.load()) {
      ::kill(::getpid(), SIGHUP);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // A 10 Hz-equivalent scrape stream (tighter, to widen the race window):
  // every poll must come back 200 despite the signal storm.
  obs::MetricsRegistry::Global().GetCounter("hisrect.test.sighup_series")
      ->Increment();
  size_t polls = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < deadline) {
    HttpResult metrics = Get(admin.port(), "/metrics");
    ASSERT_TRUE(metrics.ok) << "scrape " << polls << " failed mid-signal";
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("\"hisrect.test.sighup_series\""),
              std::string::npos);
    ++polls;
  }
  EXPECT_GE(polls, 4u);

  stop.store(true);
  sender.join();
  admin.Stop();
  ASSERT_EQ(pthread_sigmask(SIG_SETMASK, &old_mask, nullptr), 0);
  ASSERT_EQ(sigaction(SIGHUP, &old_action, nullptr), 0);
}

// ---------------------------------------------------------------------------
// WindowedHistogram: decay is deterministic under an injected clock.

TEST(WindowedHistogramTest, DecaysUnderInjectedClock) {
  uint64_t now_ns = 0;
  obs::WindowedHistogram hist(
      "test.window", {0.001, 0.01, 0.1, 1.0}, /*window_seconds=*/10.0,
      /*num_slots=*/10, [&now_ns] { return now_ns; });

  hist.Observe(0.005);
  hist.Observe(0.05);
  hist.Observe(0.05);
  obs::WindowedHistogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum, 0.105, 1e-12);
  EXPECT_NEAR(snap.Mean(), 0.035, 1e-12);

  // Percentiles interpolate within the winning bucket.
  EXPECT_GT(snap.Percentile(0.99), 0.01);
  EXPECT_LE(snap.Percentile(0.99), 0.1);
  EXPECT_GT(snap.Percentile(0.10), 0.001);
  EXPECT_LE(snap.Percentile(0.10), 0.01);

  // 5 seconds later the observations are still inside the 10s window...
  now_ns += 5'000'000'000ull;
  hist.Observe(0.5);
  snap = hist.Snap();
  EXPECT_EQ(snap.count, 4u);

  // ...9 more seconds and the first three have aged out, the 0.5 remains.
  now_ns += 9'000'000'000ull;
  snap = hist.Snap();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_NEAR(snap.sum, 0.5, 1e-12);

  // Past the full window: empty. Percentile of nothing is 0.
  now_ns += 20'000'000'000ull;
  snap = hist.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.99), 0.0);

  // Slots recycle after decay: new observations are visible again.
  hist.Observe(0.005);
  EXPECT_EQ(hist.Snap().count, 1u);
}

// An idle gap longer than the full window must not resurrect stale slot
// contents: every slot's epoch is behind the live range, so the first Snap
// after the gap is empty and the first Observe recycles a slot rather than
// adding to its stale counts.
TEST(WindowedHistogramTest, IdleGapLongerThanWindowRecyclesSlots) {
  uint64_t now_ns = 0;
  obs::WindowedHistogram hist(
      "test.window_gap", {0.001, 0.01, 0.1}, /*window_seconds=*/10.0,
      /*num_slots=*/10, [&now_ns] { return now_ns; });

  // Fill every slot across one full window (the clock advances one slot
  // width between observations, not after the last, so all ten slots are
  // still inside the live range at snap time).
  for (size_t slot = 0; slot < 10; ++slot) {
    if (slot > 0) now_ns += 1'000'000'000ull;  // One slot width.
    hist.Observe(0.005);
  }
  EXPECT_EQ(hist.Snap().count, 10u);

  // Idle for several full windows — far past every slot's epoch.
  now_ns += 35'000'000'000ull;
  obs::WindowedHistogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);

  // The next observation recycles its slot: exactly one visible, the ten
  // pre-gap observations stay gone.
  hist.Observe(0.05);
  snap = hist.Snap();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_NEAR(snap.sum, 0.05, 1e-12);

  // And another full-window gap clears that one too.
  now_ns += 30'000'000'000ull;
  EXPECT_EQ(hist.Snap().count, 0u);
}

// Snapshot::saturated (satellite: overflow-bucket accounting): set exactly
// when the live window holds observations above the last boundary, so
// /statusz can mark clamped percentiles as lower bounds.
TEST(WindowedHistogramTest, SnapshotFlagsOverflowSaturation) {
  uint64_t now_ns = 0;
  obs::WindowedHistogram hist(
      "test.window_saturated", {0.001, 0.01, 0.1}, /*window_seconds=*/10.0,
      /*num_slots=*/10, [&now_ns] { return now_ns; });

  hist.Observe(0.005);
  obs::WindowedHistogram::Snapshot snap = hist.Snap();
  EXPECT_FALSE(snap.saturated);

  // One observation above the last boundary saturates the window: high
  // percentiles clamp to the boundary instead of estimating.
  hist.Observe(5.0);
  snap = hist.Snap();
  EXPECT_TRUE(snap.saturated);
  EXPECT_EQ(snap.Percentile(0.99), 0.1);

  // Once the overflow observation ages out, the flag clears with it.
  now_ns += 60'000'000'000ull;
  hist.Observe(0.005);
  snap = hist.Snap();
  EXPECT_FALSE(snap.saturated);
  EXPECT_LE(snap.Percentile(0.99), 0.01);
}

// ---------------------------------------------------------------------------
// StageTraceBuffer mechanics.

TEST(StageTraceBufferTest, RecordsNewestFirstAndOverwritesOldest) {
  StageTraceBuffer buffer(/*capacity=*/16, /*slow_threshold_seconds=*/1.0,
                          /*slow_capacity=*/4);
  for (uint64_t i = 1; i <= 40; ++i) {
    StageTrace trace;
    trace.request_id = i;
    trace.total_seconds = 0.001;
    buffer.Record(trace);
  }
  EXPECT_EQ(buffer.recorded(), 40u);  // Overwrite-proof: counts every Record.
  // One thread records everything, as when a server resolves its requests
  // on one thread: the buffer still keeps exactly the `capacity` newest
  // traces, newest first (single-threaded, so id == order).
  ASSERT_EQ(buffer.capacity(), 16u);
  std::vector<StageTrace> recent = buffer.Recent(1000);
  ASSERT_EQ(recent.size(), 16u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].request_id, 40u - i) << "position " << i;
  }
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_GT(recent[i - 1].sequence, recent[i].sequence);
  }
}

TEST(StageTraceBufferTest, KeepsSlowestExemplars) {
  StageTraceBuffer buffer(16, /*slow_threshold_seconds=*/0.1,
                          /*slow_capacity=*/2);
  for (int i = 1; i <= 5; ++i) {
    SlowExemplar exemplar;
    exemplar.trace.request_id = static_cast<uint64_t>(i);
    exemplar.trace.total_seconds = 0.1 * i;
    buffer.RecordSlow(exemplar);
  }
  std::vector<SlowExemplar> slow = buffer.SlowExemplars();
  ASSERT_EQ(slow.size(), 2u);  // Bounded; slowest first.
  EXPECT_EQ(slow[0].trace.request_id, 5u);
  EXPECT_EQ(slow[1].trace.request_id, 4u);
}

// ---------------------------------------------------------------------------
// Full-stack fixture: fitted model + JudgementServer + admin endpoint.

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

class AdminIntrospectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TinyDataset());
    text_model_ = new core::TextModel(TinyTextModel(*dataset_));
    model_ = new core::HisRectModel(FastConfig());
    model_->Fit(*dataset_, *text_model_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete text_model_;
    delete dataset_;
    model_ = nullptr;
    text_model_ = nullptr;
    dataset_ = nullptr;
  }

  static JudgementRequest RequestFor(size_t i, size_t j) {
    JudgementRequest request;
    request.a = dataset_->test.profiles[i % dataset_->test.profiles.size()];
    request.b = dataset_->test.profiles[j % dataset_->test.profiles.size()];
    return request;
  }

  static ServeOptions TracedOptions() {
    ServeOptions options;
    options.batch_size = 4;
    options.max_wait_us = 500;
    options.stage_trace_capacity = 1024;
    options.stats_window_s = 10.0;
    // Sanitizer builds cross the default 50ms slow threshold on ordinary
    // requests, which would add nondeterministic slow exemplars to /tracez;
    // pin it out of reach (the exemplar path has its own unit test).
    options.slow_trace_threshold_s = 3600.0;
    return options;
  }

  static data::Dataset* dataset_;
  static core::TextModel* text_model_;
  static core::HisRectModel* model_;
};

data::Dataset* AdminIntrospectionTest::dataset_ = nullptr;
core::TextModel* AdminIntrospectionTest::text_model_ = nullptr;
core::HisRectModel* AdminIntrospectionTest::model_ = nullptr;

TEST_F(AdminIntrospectionTest, StageTraceAccountingMatchesLatency) {
  JudgementServer server(model_, TracedOptions());
  constexpr size_t kRequests = 64;
  std::vector<Ticket> tickets;
  std::vector<double> latencies;
  for (size_t i = 0; i < kRequests; ++i) {
    auto result = server.Submit(RequestFor(i, i * 7 + 3));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  for (Ticket& ticket : tickets) {
    util::Result<Response> response = ticket.future().get();
    ASSERT_TRUE(response.ok());
    latencies.push_back(response.value().latency_seconds);
  }
  server.Shutdown();

  const StageTraceBuffer* traces = server.stage_traces();
  ASSERT_NE(traces, nullptr);
  // Every admitted request left exactly one trace.
  EXPECT_EQ(traces->recorded(), kRequests);
  std::vector<StageTrace> all = traces->Recent(kRequests);
  ASSERT_EQ(all.size(), kRequests);
  for (const StageTrace& trace : all) {
    EXPECT_EQ(trace.outcome, StageTrace::Outcome::kScored);
    EXPECT_GE(trace.request_id, 1u);
    EXPECT_LE(trace.request_id, kRequests);
    // Telescoping stage timestamps: the per-stage sum reproduces the
    // server-measured latency to double rounding, far inside the 1%
    // acceptance bound.
    EXPECT_NEAR(trace.StageSum(), trace.total_seconds,
                1e-9 + 0.01 * trace.total_seconds);
    // The trace's total is the latency the client saw on the Response.
    EXPECT_NEAR(trace.total_seconds,
                latencies[trace.request_id - 1],
                1e-12);
    EXPECT_GE(trace.queue_seconds, 0.0);
    EXPECT_GE(trace.batch_seconds, 0.0);
    EXPECT_GE(trace.encode_seconds, 0.0);
    EXPECT_GE(trace.score_seconds, 0.0);
    EXPECT_GE(trace.resolve_seconds, 0.0);
  }

  // The windowed histograms saw every completion.
  const obs::WindowedHistogram* window =
      server.window_latency(Priority::kInteractive);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->Snap().count, kRequests);
}

TEST_F(AdminIntrospectionTest, UnscoredRequestsLeaveTracesToo) {
  ServeOptions options = TracedOptions();
  options.batch_size = 64;
  options.max_wait_us = 200'000;  // Requests linger until we act.
  JudgementServer server(model_, options);

  auto cancel_result = server.Submit(RequestFor(0, 1));
  ASSERT_TRUE(cancel_result.ok());
  Ticket cancel_ticket = std::move(cancel_result).value();
  ASSERT_TRUE(cancel_ticket.Cancel());

  JudgementRequest doomed = RequestFor(1, 2);
  doomed.timeout_us = 1;  // Expires before any batch can form.
  auto expired_result = server.Submit(std::move(doomed));
  ASSERT_TRUE(expired_result.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Shutdown();  // Drains: the expired request resolves at formation.

  const StageTraceBuffer* traces = server.stage_traces();
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->recorded(), 2u);
  bool saw_cancelled = false;
  bool saw_expired = false;
  for (const StageTrace& trace : traces->Recent(10)) {
    if (trace.outcome == StageTrace::Outcome::kCancelled) {
      saw_cancelled = true;
    }
    if (trace.outcome == StageTrace::Outcome::kExpired) saw_expired = true;
    EXPECT_NEAR(trace.StageSum(), trace.total_seconds, 1e-9);
    EXPECT_EQ(trace.encode_seconds, 0.0);  // Never reached scoring.
    EXPECT_EQ(trace.score_seconds, 0.0);
  }
  EXPECT_TRUE(saw_cancelled);
  EXPECT_TRUE(saw_expired);
}

TEST_F(AdminIntrospectionTest, EndpointsServeGoldenShapes) {
  JudgementServer server(model_, TracedOptions());
  ServerIntrospection introspection(&server);
  obs::AdminServer admin;
  introspection.RegisterHandlers(&admin);
  ASSERT_TRUE(admin.Start(0).ok());

  // Score a little traffic so /statusz and /tracez have content.
  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 8; ++i) {
    auto result = server.Submit(RequestFor(i, i + 1));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  for (Ticket& ticket : tickets) ticket.future().wait();

  HttpResult healthz = Get(admin.port(), "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(healthz.body.find("\"accepting\": true"), std::string::npos);

  HttpResult statusz = Get(admin.port(), "/statusz");
  ASSERT_TRUE(statusz.ok);
  for (const char* key :
       {"\"uptime_seconds\"", "\"build\"", "\"model_version\"",
        "\"queue_depth\"", "\"interactive\"", "\"batch\"", "\"stats\"",
        "\"admitted\": 8", "\"completed\": 8", "\"encoder_cache\"",
        "\"arena_bytes\"", "\"window_latency\"", "\"window_seconds\"",
        "\"p50\"", "\"p95\"", "\"p99\"", "\"stage_traces\"",
        "\"recorded\": 8"}) {
    EXPECT_NE(statusz.body.find(key), std::string::npos)
        << "missing " << key << " in:\n"
        << statusz.body;
  }

  HttpResult tracez = Get(admin.port(), "/tracez?n=3");
  ASSERT_TRUE(tracez.ok);
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"recorded\": 8"), std::string::npos);
  EXPECT_NE(tracez.body.find("\"outcome\": \"scored\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"stage_sum_seconds\""), std::string::npos);
  // ?n=3 bounds the trace list: exactly 3 request_id fields in "traces".
  size_t count = 0;
  for (size_t pos = tracez.body.find("\"request_id\"");
       pos != std::string::npos;
       pos = tracez.body.find("\"request_id\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);

  // Draining flips /healthz before shutdown completes.
  introspection.SetDraining(true);
  HttpResult draining = Get(admin.port(), "/healthz");
  ASSERT_TRUE(draining.ok);
  EXPECT_NE(draining.body.find("\"status\": \"draining\""),
            std::string::npos);
  server.Shutdown();
  HttpResult after = Get(admin.port(), "/healthz");
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.body.find("\"accepting\": false"), std::string::npos);
}

TEST_F(AdminIntrospectionTest, TracezWithoutTracingIs404) {
  ServeOptions options;
  options.batch_size = 4;
  JudgementServer server(model_, options);  // Tracing off by default.
  ServerIntrospection introspection(&server);
  obs::AdminServer admin;
  introspection.RegisterHandlers(&admin);
  ASSERT_TRUE(admin.Start(0).ok());
  HttpResult tracez = Get(admin.port(), "/tracez");
  ASSERT_TRUE(tracez.ok);
  EXPECT_EQ(tracez.status, 404);
  // /statusz still works, reporting tracing as disabled.
  HttpResult statusz = Get(admin.port(), "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_NE(statusz.body.find("\"stage_traces\": null"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"window_latency\": null"),
            std::string::npos);
}

// Scrape under load from 4 client threads while the server scores traffic;
// served scores must stay bitwise-identical to the offline scorer (the
// admin plane is observability only — TSan runs this test via
// tools/sanitize_smoke.sh, labels obs+serve).
TEST_F(AdminIntrospectionTest, ConcurrentScrapesDoNotPerturbScores) {
  JudgementServer server(model_, TracedOptions());
  ServerIntrospection introspection(&server);
  obs::AdminServer admin;
  introspection.RegisterHandlers(&admin);
  ASSERT_TRUE(admin.Start(0).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> scrapes{0};
  std::vector<std::thread> scrapers;
  const char* paths[4] = {"/metrics", "/healthz", "/statusz", "/tracez"};
  for (size_t t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        HttpResult result = Get(admin.port(), paths[t]);
        if (result.ok) scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr size_t kRequests = 96;
  std::vector<Ticket> tickets;
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < kRequests; ++i) {
    pairs.emplace_back(i, i * 7 + 3);
    auto result = server.Submit(RequestFor(i, i * 7 + 3));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    util::Result<Response> response = tickets[i].future().get();
    ASSERT_TRUE(response.ok());
    const double served = response.value().judgement.score;
    const double offline =
        model_->ScorePair(RequestFor(pairs[i].first, pairs[i].second).a,
                          RequestFor(pairs[i].first, pairs[i].second).b);
    EXPECT_EQ(std::memcmp(&served, &offline, sizeof(double)), 0)
        << "request " << i << ": served " << served << " offline " << offline;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& scraper : scrapers) scraper.join();
  server.Shutdown();
  EXPECT_GT(scrapes.load(), 0u);
}

// admin.slow_scrape: a scrape stalled mid-response (after its handler ran,
// before the socket write) must not delay request resolution — the admin
// plane is a single serial thread strictly off the batcher's path.
TEST_F(AdminIntrospectionTest, StalledScrapeNeverBlocksTheBatcher) {
  JudgementServer server(model_, TracedOptions());
  ServerIntrospection introspection(&server);
  obs::AdminServer admin;
  introspection.RegisterHandlers(&admin);
  ASSERT_TRUE(admin.Start(0).ok());

  // The next admin request stalls 600ms inside the admin thread.
  util::FailPoint::Arm("admin.slow_scrape", 1, 600);
  std::thread stalled([&] { Get(admin.port(), "/statusz"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // While the scrape is parked, a burst of requests must resolve at normal
  // latency — far faster than the remaining stall.
  const auto start = std::chrono::steady_clock::now();
  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 16; ++i) {
    auto result = server.Submit(RequestFor(i, i + 2));
    ASSERT_TRUE(result.ok());
    tickets.push_back(std::move(result).value());
  }
  for (Ticket& ticket : tickets) {
    ASSERT_EQ(ticket.future().wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_TRUE(ticket.future().get().ok());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 0.5)
      << "request resolution waited on a stalled admin scrape";
  stalled.join();
  util::FailPoint::DisarmAll();
  server.Shutdown();
}

}  // namespace
}  // namespace hisrect::serve
