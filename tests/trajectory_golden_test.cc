// Absolute training bits. Every other trainer check is relative (eager vs
// plan, 1 vs 4 threads, resumed vs uninterrupted), so a change that moved
// all executors in lockstep would pass them. This suite pins the saved
// parameter bytes of six tiny fits to recorded constants instead.
//
// The constants belong to the toolchain they were recorded with: GCC 12.2.0
// and glibc 2.36 (Debian 12) on x86-64, in the default (no -march) build,
// RelWithDebInfo and Release alike. The kernels are bitwise-stable across
// builds by design (-ffp-contract=off), but libm's exp/log/tanh are not
// promised across glibc releases. Re-record only for a toolchain change or
// a deliberate change of the training math, never to absorb a refactor.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "core/hisrect_model.h"
#include "tests/test_common.h"
#include "util/atomic_file.h"
#include "util/thread_pool.h"

namespace hisrect::core {
namespace {

using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct GoldenCase {
  const char* name;
  size_t shards;
  bool plan_fuse;
  bool one_phase;
  bool squared_l2_without_embedding;
  uint64_t save_fnv1a;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

// Sized like the determinism suite's plan sweep: 20 steps of 8 samples per
// trainer on the tiny city.
HisRectModelConfig GoldenConfig(const GoldenCase& c) {
  HisRectModelConfig config;
  config.featurizer.hidden_dim = 6;
  config.featurizer.feature_dim = 12;
  config.embed_dim = 6;
  config.judge_embed_dim = 6;
  config.ssl.steps = 20;
  config.ssl.batch_size = 8;
  config.ssl.num_shards = c.shards;
  config.judge_trainer.steps = 20;
  config.judge_trainer.batch_size = 8;
  config.judge_trainer.num_shards = c.shards;
  config.plan.enabled = c.plan_fuse;
  config.plan.fuse = c.plan_fuse;
  config.one_phase = c.one_phase;
  if (c.squared_l2_without_embedding) {
    config.ssl.unsup_loss = UnsupLossKind::kSquaredL2;
    config.ssl.use_embedding = false;
  }
  return config;
}

class TrajectoryGoldenTest : public ::testing::TestWithParam<GoldenCase> {
 protected:
  void TearDown() override { util::ThreadPool::SetGlobalNumThreads(1); }
};

TEST_P(TrajectoryGoldenTest, SavedBytesMatchRecordedHash) {
  const GoldenCase& c = GetParam();
  const data::Dataset dataset = TinyDataset();
  const TextModel text_model = TinyTextModel(dataset);
  // Two pool threads so the sharded cases really run shards concurrently;
  // the bits must not depend on it.
  util::ThreadPool::SetGlobalNumThreads(2);
  HisRectModel model(GoldenConfig(c));
  model.Fit(dataset, text_model);
  const std::string path =
      ::testing::TempDir() + "trajectory_golden_" + c.name + ".bin";
  ASSERT_TRUE(model.Save(path).ok());
  std::string bytes;
  ASSERT_TRUE(util::ReadFileToString(path, &bytes).ok());
  std::remove(path.c_str());
  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016llx",
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  EXPECT_EQ(Fnv1a64(bytes), c.save_fnv1a)
      << c.name << ": saved " << bytes.size() << " B with FNV-1a " << actual;
}

INSTANTIATE_TEST_SUITE_P(
    SixConfigurations, TrajectoryGoldenTest,
    ::testing::Values(
        GoldenCase{"serial_eager", 1, false, false, false,
                   0xb24ca3d88d24b621ull},
        GoldenCase{"serial_plan_fuse", 1, true, false, false,
                   0xb24ca3d88d24b621ull},
        GoldenCase{"shards2_eager", 2, false, false, false,
                   0x4819b27e765a0ab1ull},
        GoldenCase{"shards2_plan_fuse", 2, true, false, false,
                   0x4819b27e765a0ab1ull},
        GoldenCase{"one_phase_shards2", 2, false, true, false,
                   0x490b399ac737e1c7ull},
        GoldenCase{"squared_l2_without_e", 1, false, false, true,
                   0xd72b68d1190ebe9eull}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hisrect::core
