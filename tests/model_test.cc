#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hisrect_model.h"
#include "obs/metrics.h"
#include "tests/test_common.h"

namespace hisrect::core {
namespace {

using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

HisRectModelConfig FastConfig() {
  HisRectModelConfig config;
  config.featurizer.hidden_dim = 6;
  config.featurizer.feature_dim = 12;
  config.ssl.steps = 200;
  config.ssl.batch_size = 4;
  config.judge_trainer.steps = 200;
  config.judge_trainer.batch_size = 4;
  return config;
}

class ModelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(TinyDataset());
    text_model_ = new TextModel(TinyTextModel(*dataset_));
    model_ = new HisRectModel(FastConfig());
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

  static data::Dataset* dataset_;
  static TextModel* text_model_;
  static HisRectModel* model_;
};

data::Dataset* ModelFixture::dataset_ = nullptr;
TextModel* ModelFixture::text_model_ = nullptr;
HisRectModel* ModelFixture::model_ = nullptr;

TEST_F(ModelFixture, FittedAfterFit) { EXPECT_TRUE(model_->fitted()); }

TEST_F(ModelFixture, ScoreIsProbability) {
  const auto& profiles = dataset_->test.profiles;
  for (size_t i = 0; i + 1 < std::min<size_t>(profiles.size(), 12); i += 2) {
    double score = model_->ScorePair(profiles[i], profiles[i + 1]);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST_F(ModelFixture, ScoreIsSymmetric) {
  const auto& a = dataset_->test.profiles[0];
  const auto& b = dataset_->test.profiles[1];
  EXPECT_DOUBLE_EQ(model_->ScorePair(a, b), model_->ScorePair(b, a));
}

TEST_F(ModelFixture, ScoreIsDeterministic) {
  const auto& a = dataset_->test.profiles[0];
  const auto& b = dataset_->test.profiles[1];
  EXPECT_DOUBLE_EQ(model_->ScorePair(a, b), model_->ScorePair(a, b));
}

TEST_F(ModelFixture, ValAndTestProfilesEncodeThroughTheCachedPath) {
  // Fit encodes only dataset.train; inference on validation / test profiles
  // must run through the same per-encoder cache, so repeating any scoring or
  // ranking call re-reads the cache instead of re-featurizing.
  const ProfileEncoder& encoder = model_->encoder();
  const auto& val = dataset_->validation.profiles;
  const auto& test = dataset_->test.profiles;
  ASSERT_GE(val.size(), 1u);
  ASSERT_GE(test.size(), 2u);

  model_->ScorePair(test[0], test[1]);
  model_->InferPoi(val[0], 3);
  const size_t misses = encoder.cache_misses();
  const size_t hits = encoder.cache_hits();

  // The exact same calls again: three profile encodes, all cache hits.
  model_->ScorePair(test[0], test[1]);
  model_->InferPoi(val[0], 3);
  EXPECT_EQ(encoder.cache_misses(), misses);
  EXPECT_EQ(encoder.cache_hits(), hits + 3);
}

TEST_F(ModelFixture, InferPoiReturnsSortedProbabilities) {
  auto ranked = model_->InferPoi(dataset_->test.profiles[0], 5);
  ASSERT_LE(ranked.size(), 5u);
  ASSERT_GE(ranked.size(), 1u);
  float total = 0.0f;
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].second, ranked[i].second);
  }
  for (const auto& [pid, probability] : ranked) {
    EXPECT_GE(pid, 0);
    EXPECT_LT(static_cast<size_t>(pid), dataset_->pois.size());
    total += probability;
  }
  EXPECT_LE(total, 1.0f + 1e-4f);
}

TEST_F(ModelFixture, InferPoiFullListSumsToOne) {
  auto ranked = model_->InferPoi(dataset_->test.profiles[0],
                                 dataset_->pois.size());
  float total = 0.0f;
  for (const auto& [pid, probability] : ranked) total += probability;
  EXPECT_NEAR(total, 1.0f, 1e-4f);
}

TEST_F(ModelFixture, FeatureHasConfiguredDimension) {
  auto feature = model_->Feature(dataset_->test.profiles[0]);
  EXPECT_EQ(feature.size(), 12u);
}

TEST_F(ModelFixture, JudgePairConsistentWithScore) {
  const auto& a = dataset_->test.profiles[0];
  const auto& b = dataset_->test.profiles[1];
  EXPECT_EQ(model_->JudgePair(a, b), model_->ScorePair(a, b) >= 0.5);
}

TEST(ModelTest, SameSeedSameResults) {
  data::Dataset dataset = TinyDataset();
  TextModel text_model = TinyTextModel(dataset);
  HisRectModel a(FastConfig());
  a.Fit(dataset, text_model);
  HisRectModel b(FastConfig());
  b.Fit(dataset, text_model);
  const auto& p = dataset.test.profiles;
  EXPECT_DOUBLE_EQ(a.ScorePair(p[0], p[1]), b.ScorePair(p[0], p[1]));
}

TEST(ModelTest, DifferentSeedsDiffer) {
  data::Dataset dataset = TinyDataset();
  TextModel text_model = TinyTextModel(dataset);
  HisRectModel a(FastConfig());
  a.Fit(dataset, text_model);
  HisRectModelConfig other_config = FastConfig();
  other_config.seed = 12345;
  HisRectModel b(other_config);
  b.Fit(dataset, text_model);
  const auto& p = dataset.test.profiles;
  EXPECT_NE(a.ScorePair(p[0], p[1]), b.ScorePair(p[0], p[1]));
}

TEST(ModelTest, OnePhaseFitsAndScores) {
  data::Dataset dataset = TinyDataset();
  TextModel text_model = TinyTextModel(dataset);
  HisRectModelConfig config = FastConfig();
  config.one_phase = true;
  HisRectModel model(config);
  model.Fit(dataset, text_model);
  const auto& p = dataset.test.profiles;
  double score = model.ScorePair(p[0], p[1]);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
  // One-phase still supports POI inference via the post-hoc classifier pass.
  EXPECT_FALSE(model.InferPoi(p[0], 3).empty());
}

TEST(ModelTest, SaveLoadRoundTripPreservesScores) {
  data::Dataset dataset = TinyDataset();
  TextModel text_model = TinyTextModel(dataset);
  HisRectModel trained(FastConfig());
  trained.Fit(dataset, text_model);
  const std::string path = "/tmp/hisrect_model_roundtrip.bin";
  ASSERT_TRUE(trained.Save(path).ok());

  // Up to 16 test-profile pairs; each distinct (word count, word count) is
  // its own plan shape for the planned configs.
  const auto& p = dataset.test.profiles;
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < std::min<size_t>(p.size(), 16); ++i) {
    pairs.emplace_back(i, (i * 7 + 3) % p.size());
  }
  std::vector<double> expected;
  for (const auto& [i, j] : pairs) {
    expected.push_back(trained.ScorePair(p[i], p[j]));
  }
  auto trained_top = trained.InferPoi(p[0], 3);

  // The one checkpoint restores into every scoring path: eager, recorded
  // plan, and fused plan all score bitwise-equal to the trained eager model.
  struct Variant {
    const char* name;
    bool plan;
    bool fuse;
  };
  for (const Variant& variant : {Variant{"eager", false, false},
                                 Variant{"plan", true, false},
                                 Variant{"plan+fuse", true, true}}) {
    SCOPED_TRACE(variant.name);
    HisRectModelConfig config = FastConfig();
    config.plan.enabled = variant.plan;
    config.plan.fuse = variant.fuse;
    HisRectModel restored(config);
    restored.InitializeForLoad(dataset, text_model);
    // Scoring untrained weights first records a plan before Load; plans
    // read parameters on every replay, so the restore still takes effect.
    (void)restored.ScorePair(p[0], p[1]);
    ASSERT_TRUE(restored.Load(path).ok());
    auto score_all = [&] {
      std::vector<double> scores;
      for (const auto& [i, j] : pairs) {
        scores.push_back(restored.ScorePair(p[i], p[j]));
      }
      return scores;
    };
    const std::vector<double> first = score_all();
    for (size_t k = 0; k < pairs.size(); ++k) {
      hisrect::testing::ExpectBitwiseEqual(first[k], expected[k],
                                           "pair " + std::to_string(k));
    }
    if (variant.plan) {
      // Every shape is recorded now: a second pass replays without a
      // single tensor allocation and returns the same bits.
      obs::Counter* allocs = obs::MetricsRegistry::Global().GetCounter(
          "hisrect.nn.tensor_allocs");
      const int64_t before = allocs->Value();
      const std::vector<double> second = score_all();
      EXPECT_EQ(allocs->Value() - before, 0);
      for (size_t k = 0; k < pairs.size(); ++k) {
        hisrect::testing::ExpectBitwiseEqual(
            second[k], expected[k], "second pass, pair " + std::to_string(k));
      }
    }
    auto restored_top = restored.InferPoi(p[0], 3);
    ASSERT_EQ(trained_top.size(), restored_top.size());
    for (size_t i = 0; i < trained_top.size(); ++i) {
      EXPECT_EQ(trained_top[i].first, restored_top[i].first);
    }
  }
  std::remove(path.c_str());
}

TEST(ModelTest, SaveRequiresFitted) {
  HisRectModel model(FastConfig());
  EXPECT_FALSE(model.Save("/tmp/never.bin").ok());
  EXPECT_FALSE(model.Load("/tmp/never.bin").ok());
}

TEST(ModelTest, LoadRejectsMismatchedConfig) {
  data::Dataset dataset = TinyDataset();
  TextModel text_model = TinyTextModel(dataset);
  HisRectModel trained(FastConfig());
  trained.Fit(dataset, text_model);
  const std::string path = "/tmp/hisrect_model_mismatch.bin";
  ASSERT_TRUE(trained.Save(path).ok());

  HisRectModelConfig bigger = FastConfig();
  bigger.featurizer.feature_dim = 24;  // Different shapes.
  HisRectModel restored(bigger);
  restored.InitializeForLoad(dataset, text_model);
  EXPECT_FALSE(restored.Load(path).ok());
  std::remove(path.c_str());
}

TEST(ModelTest, HandlesProfileWithoutHistoryOrText) {
  data::Dataset dataset = TinyDataset();
  TextModel text_model = TinyTextModel(dataset);
  HisRectModel model(FastConfig());
  model.Fit(dataset, text_model);
  data::Profile bare;
  bare.uid = 999;
  bare.tweet.ts = 1000;
  bare.tweet.content = "";
  double score = model.ScorePair(bare, dataset.test.profiles[0]);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

}  // namespace
}  // namespace hisrect::core
