// Tests for src/core: FhdnnModel, pipelines, experiment scaffolding.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/fhdnn.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "hdc/classifier.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace fhdnn {
namespace {

class QuietLogs : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::Warn); }
};

core::FhdnnConfig small_config() {
  core::FhdnnConfig cfg;
  cfg.in_channels = 1;
  cfg.image_hw = 28;
  cfg.num_classes = 10;
  cfg.feature_dim = 128;
  cfg.hd_dim = 1024;
  return cfg;
}

using FhdnnModelTest = QuietLogs;

TEST_F(FhdnnModelTest, EndToEndLearnsSyntheticMnist) {
  Rng rng(1);
  auto full = data::synthetic_mnist(400, rng);
  auto split = data::train_test_split(full, 0.25, rng);
  core::FhdnnModel model(small_config());
  model.calibrate(split.train.x);
  // Local training as §3.4.1: one-shot bundle, then refinement epochs.
  const auto enc = model.encode_dataset(split.train);
  hdc::HdClassifier clf(10, 1024);
  clf.bundle(enc.h, enc.labels);
  for (int e = 0; e < 2; ++e) clf.refine_epoch(enc.h, enc.labels);
  const auto test = model.encode_dataset(split.test);
  EXPECT_GT(clf.accuracy(test.h, test.labels), 0.9);
}

TEST_F(FhdnnModelTest, EncodeShapes) {
  core::FhdnnModel model(small_config());
  Rng rng(2);
  const Tensor imgs = Tensor::rand(Shape{3, 1, 28, 28}, rng);
  const Tensor h = model.encode_images(imgs);
  EXPECT_EQ(h.shape(), (Shape{3, 1024}));
  for (const float v : h.data()) EXPECT_TRUE(v == 1.0F || v == -1.0F);
}

TEST_F(FhdnnModelTest, UpdateBytes) {
  EXPECT_EQ(core::fhdnn_update_bytes(small_config()), 10U * 1024U * 4U);
}

TEST_F(FhdnnModelTest, TwoModelsShareEncodings) {
  // The no-transmission premise: two independently constructed models with
  // the same config encode identically.
  core::FhdnnModel a(small_config());
  core::FhdnnModel b(small_config());
  Rng rng(4);
  const Tensor imgs = Tensor::rand(Shape{2, 1, 28, 28}, rng);
  EXPECT_EQ(a.encode_images(imgs).vec(), b.encode_images(imgs).vec());
}

TEST_F(FhdnnModelTest, RejectsBadConfig) {
  auto cfg = small_config();
  cfg.num_classes = 1;
  EXPECT_THROW(core::FhdnnModel{cfg}, Error);
}

// ------------------------------------------------------------ experiment

using ExperimentTest = QuietLogs;

TEST_F(ExperimentTest, MakesAllDatasets) {
  for (const std::string name : {"mnist", "fashion", "cifar"}) {
    const auto exp = core::make_experiment_data(name, 300, 5,
                                                core::Distribution::Iid, 1);
    EXPECT_EQ(exp.parts.size(), 5U);
    EXPECT_GT(exp.test.size(), 0);
    EXPECT_EQ(exp.train.num_classes, 10);
  }
  EXPECT_THROW(core::make_experiment_data("imagenet", 100, 2,
                                          core::Distribution::Iid, 1),
               Error);
}

TEST_F(ExperimentTest, NonIidIsSkewed) {
  const auto iid = core::make_experiment_data("mnist", 1000, 10,
                                              core::Distribution::Iid, 2);
  const auto skew = core::make_experiment_data("mnist", 1000, 10,
                                               core::Distribution::NonIid, 2);
  EXPECT_GT(data::label_skew(skew.train, skew.parts),
            data::label_skew(iid.train, iid.parts));
}

TEST_F(ExperimentTest, DistributionNames) {
  EXPECT_EQ(core::to_string(core::Distribution::Iid), "iid");
  EXPECT_EQ(core::to_string(core::Distribution::NonIid), "non-iid");
}

TEST_F(ExperimentTest, ConfigHelpers) {
  Rng rng(3);
  const auto ds = data::synthetic_cifar(20, rng);
  const auto cfg = core::fhdnn_config_for(ds, 2048);
  EXPECT_EQ(cfg.in_channels, 3);
  EXPECT_EQ(cfg.image_hw, 32);
  EXPECT_EQ(cfg.hd_dim, 2048);
  EXPECT_EQ(core::cnn_params_for("mnist").arch, core::CnnArch::Cnn2);
  EXPECT_EQ(core::cnn_params_for("cifar").arch, core::CnnArch::MiniResNet);
  const auto p = core::paper_default_params(100, 50, 9);
  EXPECT_EQ(p.local_epochs, 2);
  EXPECT_DOUBLE_EQ(p.client_fraction, 0.2);
  EXPECT_EQ(p.batch_size, 10U);
}

// ------------------------------------------------------------- pipelines

using PipelineTest = QuietLogs;

TEST_F(PipelineTest, FhdnnFederatedRuns) {
  const auto exp = core::make_experiment_data("mnist", 400, 5,
                                              core::Distribution::Iid, 4);
  auto params = core::paper_default_params(5, 3, 4);
  params.client_fraction = 0.4;
  auto cfg = core::fhdnn_config_for(exp.train, 1024, 128);
  channel::HdUplinkConfig uplink;
  const auto hist = core::run_fhdnn_federated(cfg, exp.train, exp.parts,
                                              exp.test, params, uplink);
  EXPECT_EQ(hist.size(), 3U);
  EXPECT_GT(hist.final_accuracy(), 0.8);
}

TEST_F(PipelineTest, CnnFederatedRuns) {
  const auto exp = core::make_experiment_data("mnist", 400, 5,
                                              core::Distribution::Iid, 5);
  auto params = core::paper_default_params(5, 3, 5);
  params.client_fraction = 0.4;
  params.batch_size = 16;
  const auto cnn = core::cnn_params_for("mnist");
  const auto hist = core::run_cnn_federated(cnn, exp.train, exp.parts,
                                            exp.test, params, nullptr);
  EXPECT_EQ(hist.size(), 3U);
  EXPECT_GT(hist.final_accuracy(), 0.3);
}

TEST_F(PipelineTest, EncodeOnceMatchesOneShotPipeline) {
  // encode_for_fhdnn + run_fhdnn_on_encoded must be bit-identical to the
  // single-call pipeline (the sweep benches rely on this equivalence).
  const auto exp = core::make_experiment_data("mnist", 300, 4,
                                              core::Distribution::Iid, 8);
  auto params = core::paper_default_params(4, 2, 8);
  params.client_fraction = 0.5;
  const auto cfg = core::fhdnn_config_for(exp.train, 512, 64);
  channel::HdUplinkConfig clean;
  const auto one_shot = core::run_fhdnn_federated(cfg, exp.train, exp.parts,
                                                  exp.test, params, clean);
  const auto encoded =
      core::encode_for_fhdnn(cfg, exp.train, exp.parts, exp.test);
  const auto reused = core::run_fhdnn_on_encoded(encoded, params, clean);
  ASSERT_EQ(one_shot.size(), reused.size());
  for (std::size_t i = 0; i < one_shot.size(); ++i) {
    EXPECT_EQ(one_shot.rounds()[i].test_accuracy,
              reused.rounds()[i].test_accuracy);
  }
  // And the encoded data is reusable for a second, different run.
  channel::HdUplinkConfig lossy;
  lossy.mode = channel::HdUplinkMode::PacketLoss;
  lossy.loss_rate = 0.3;
  EXPECT_NO_THROW(core::run_fhdnn_on_encoded(encoded, params, lossy));
}

TEST_F(PipelineTest, RgbConfigAutoSelectsWiderExtractor) {
  Rng rng(9);
  const auto gray = data::synthetic_mnist(12, rng);
  const auto rgb = data::synthetic_cifar(12, rng);
  const auto cg = core::fhdnn_config_for(gray, 1000);
  const auto cr = core::fhdnn_config_for(rgb, 1000);
  EXPECT_GT(cr.conv_width, cg.conv_width);
  EXPECT_GT(cr.feature_dim, cg.feature_dim);
  // Explicit feature_dim overrides the auto choice.
  EXPECT_EQ(core::fhdnn_config_for(rgb, 1000, 128).feature_dim, 128);
}

TEST_F(PipelineTest, UpdateSizeGapMatchesPaperDirection) {
  // FHDnn updates must be much smaller than the CNN's for the CIFAR-scale
  // model (the paper's 22x at full scale).
  Rng rng(6);
  const auto ds = data::synthetic_cifar(20, rng);
  const auto fhdnn_cfg = core::fhdnn_config_for(ds, 2048);
  auto cnn = core::cnn_params_for("cifar");
  cnn.base_width = 16;
  EXPECT_LT(core::fhdnn_update_bytes(fhdnn_cfg),
            core::cnn_update_bytes(cnn, ds));
}

}  // namespace
}  // namespace fhdnn
