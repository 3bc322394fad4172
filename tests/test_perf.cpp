// Tests for src/perf: MAC counting and the calibrated device cost model.
// The calibrated profiles must regenerate the paper's Table 1 numbers.
#include <gtest/gtest.h>

#include "perf/device_model.hpp"
#include "perf/model_macs.hpp"
#include "util/error.hpp"

namespace fhdnn {
namespace {

using namespace fhdnn::perf;

TEST(ModelMacs, Conv2dFormula) {
  // oc * ic * k^2 MACs per output pixel.
  EXPECT_EQ(conv2d_macs(3, 16, 3, 32, 32), 32ULL * 32 * 16 * 3 * 9);
  EXPECT_EQ(conv2d_macs(1, 1, 1, 1, 1), 1ULL);
  EXPECT_THROW(conv2d_macs(0, 16, 3, 32, 32), Error);
}

TEST(ModelMacs, LinearFormula) {
  EXPECT_EQ(linear_macs(128, 10), 1280ULL);
  EXPECT_THROW(linear_macs(0, 10), Error);
}

TEST(ModelMacs, Cnn2Breakdown) {
  // conv1: 16*1*9*28^2, conv2: 32*16*9*14^2, fc1: 32*7*7*128, fc2: 128*10.
  const std::uint64_t expected = 16ULL * 1 * 9 * 28 * 28 +
                                 32ULL * 16 * 9 * 14 * 14 +
                                 32ULL * 7 * 7 * 128 + 128ULL * 10;
  EXPECT_EQ(cnn2_fwd_macs(1, 28, 10), expected);
  EXPECT_THROW(cnn2_fwd_macs(1, 30, 10), Error);
}

TEST(ClientWorkload, HdOpsFormula) {
  EXPECT_EQ(ClientWorkload::hd_ops(512, 10'000, 10),
            512ULL * 10'000 + 10ULL * 10'000);
  const auto ref = ClientWorkload::paper_reference();
  EXPECT_EQ(ref.samples, 500ULL);
  EXPECT_EQ(ref.epochs, 2ULL);
  EXPECT_EQ(ref.hd_ops_per_sample, ClientWorkload::hd_ops(512, 10'000, 10));
}

TEST(DeviceModel, ReproducesPaperTable1) {
  const auto w = ClientWorkload::paper_reference();
  struct Expected {
    DeviceProfile dev;
    double t_fhdnn, t_cnn, e_fhdnn, e_cnn;
  };
  const Expected cases[] = {
      {DeviceProfile::raspberry_pi_3b(), 858.72, 1328.04, 4418.4, 6742.8},
      {DeviceProfile::jetson(), 15.96, 90.55, 96.17, 497.572},
  };
  for (const auto& c : cases) {
    const auto cnn = cnn_local_training(c.dev, w);
    const auto fhd = fhdnn_local_training(c.dev, w);
    EXPECT_NEAR(cnn.seconds, c.t_cnn, c.t_cnn * 0.002) << c.dev.name;
    EXPECT_NEAR(fhd.seconds, c.t_fhdnn, c.t_fhdnn * 0.002) << c.dev.name;
    EXPECT_NEAR(cnn.energy_joules, c.e_cnn, c.e_cnn * 0.002) << c.dev.name;
    EXPECT_NEAR(fhd.energy_joules, c.e_fhdnn, c.e_fhdnn * 0.002) << c.dev.name;
  }
}

TEST(DeviceModel, SpeedupRatiosMatchPaperBand) {
  // Paper: 1.5-6x, largest on the GPU device.
  const auto w = ClientWorkload::paper_reference();
  const auto pi = DeviceProfile::raspberry_pi_3b();
  const auto jet = DeviceProfile::jetson();
  const double pi_ratio =
      cnn_local_training(pi, w).seconds / fhdnn_local_training(pi, w).seconds;
  const double jet_ratio = cnn_local_training(jet, w).seconds /
                           fhdnn_local_training(jet, w).seconds;
  EXPECT_GT(pi_ratio, 1.4);
  EXPECT_LT(pi_ratio, 1.7);
  EXPECT_GT(jet_ratio, 5.0);
  EXPECT_LT(jet_ratio, 6.5);
  EXPECT_GT(jet_ratio, pi_ratio);
}

TEST(DeviceModel, CostsLinearInWorkload) {
  const auto dev = DeviceProfile::jetson();
  auto w = ClientWorkload::paper_reference();
  const auto base = cnn_local_training(dev, w);
  const auto base_f = fhdnn_local_training(dev, w);
  w.samples *= 3;
  EXPECT_NEAR(cnn_local_training(dev, w).seconds, 3.0 * base.seconds, 1e-6);
  EXPECT_NEAR(fhdnn_local_training(dev, w).seconds, 3.0 * base_f.seconds,
              1e-6);
  w.samples /= 3;
  w.epochs *= 2;
  EXPECT_NEAR(cnn_local_training(dev, w).seconds, 2.0 * base.seconds, 1e-6);
}

TEST(DeviceModel, FhdnnAlwaysCheaperAtReferenceWorkload) {
  const auto w = ClientWorkload::paper_reference();
  for (const auto& dev :
       {DeviceProfile::raspberry_pi_3b(), DeviceProfile::jetson()}) {
    EXPECT_LT(fhdnn_local_training(dev, w).seconds,
              cnn_local_training(dev, w).seconds);
    EXPECT_LT(fhdnn_local_training(dev, w).energy_joules,
              cnn_local_training(dev, w).energy_joules);
  }
}

TEST(DeviceModel, ValidatesRates) {
  DeviceProfile broken;
  broken.name = "broken";
  const auto w = ClientWorkload::paper_reference();
  EXPECT_THROW(cnn_local_training(broken, w), Error);
  EXPECT_THROW(fhdnn_local_training(broken, w), Error);
}

}  // namespace
}  // namespace fhdnn
