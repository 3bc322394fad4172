// Tests for the extended FL components: convergence diagnostics, the
// wall-clock timeline, and update-subsampling compression.
#include <gtest/gtest.h>

#include <cmath>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/convergence.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "fl/timeline.hpp"
#include "hdc/encoder.hpp"
#include "nn/resnet.hpp"
#include "util/error.hpp"

namespace fhdnn {
namespace {

// ----------------------------------------------------------- power-law fit

TEST(PowerLaw, RecoversKnownExponent) {
  std::vector<double> ys;
  for (int t = 1; t <= 40; ++t) {
    ys.push_back(5.0 / std::pow(static_cast<double>(t), 1.3));
  }
  const auto fit = fl::fit_power_law(ys);
  EXPECT_NEAR(fit.exponent, 1.3, 1e-6);
  EXPECT_NEAR(fit.log_c, std::log(5.0), 1e-6);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
  EXPECT_EQ(fit.points, 40U);
}

TEST(PowerLaw, SkipsNonPositiveValues) {
  // y = 1/t^2 at t = 1, 3, 5, 6; zeros/negatives at t = 2, 4 are skipped.
  std::vector<double> ys{1.0, 0.0, 1.0 / 9.0, -1.0, 1.0 / 25.0, 1.0 / 36.0};
  const auto fit = fl::fit_power_law(ys);
  EXPECT_EQ(fit.points, 4U);
  EXPECT_NEAR(fit.exponent, 2.0, 0.05);
}

TEST(PowerLaw, RequiresEnoughPoints) {
  const std::vector<double> ys{1.0, 0.5};
  EXPECT_THROW(fl::fit_power_law(ys), Error);
}

TEST(PowerLaw, FlatSeriesFitsZeroExponent) {
  const std::vector<double> ys(10, 0.7);
  const auto fit = fl::fit_power_law(ys);
  EXPECT_NEAR(fit.exponent, 0.0, 1e-9);
}

TEST(Trajectory, DistancesAndFit) {
  fl::ModelTrajectory traj;
  // Models converging like 1/t toward (1, 1).
  for (int t = 1; t <= 20; ++t) {
    const float off = 1.0F / static_cast<float>(t);
    traj.record(Tensor(Shape{2}, {1.0F + off, 1.0F - off}));
  }
  traj.record(Tensor(Shape{2}, {1.0F, 1.0F}));
  const auto d = traj.distances_to_final();
  EXPECT_EQ(d.size(), 20U);
  EXPECT_NEAR(d[0], std::sqrt(2.0), 1e-5);
  const auto fit = traj.fit();
  EXPECT_NEAR(fit.exponent, 1.0, 0.05);
}

TEST(Trajectory, RequiresSnapshots) {
  fl::ModelTrajectory traj;
  traj.record(Tensor(Shape{2}));
  EXPECT_THROW(traj.distances_to_final(), Error);
}

TEST(Convergence, FedHdModelTrajectoryDecays) {
  // Record the global prototype matrix across a FedHd run: the distance to
  // the final model must shrink with a clearly positive power-law exponent
  // (the empirical counterpart of the paper's §3.6 O(1/T) claim).
  Rng rng(1);
  data::IsoletSpec spec;
  spec.dims = 32;
  spec.classes = 4;
  spec.n = 400;
  spec.separation = 0.5;  // hard enough that refinement keeps updating
  const auto ds = data::make_isolet_like(spec, rng);
  Rng er = rng.fork("enc");
  hdc::RandomProjectionEncoder enc(32, 1024, er);
  const auto split = data::train_test_split(ds, 0.2, rng);
  const auto parts = data::partition_iid(split.train, 6, rng);
  std::vector<fl::HdClientData> clients;
  for (const auto& p : parts) {
    const auto sub = split.train.subset(p);
    clients.push_back({enc.encode(sub.x), sub.labels});
  }
  fl::FedHdConfig cfg;
  cfg.n_clients = 6;
  cfg.client_fraction = 0.5;
  cfg.local_epochs = 1;
  cfg.rounds = 12;
  cfg.num_classes = 4;
  cfg.hd_dim = 1024;
  cfg.seed = 2;
  const fl::HdClientData test{enc.encode(split.test.x), split.test.labels};
  fl::FedHdTrainer trainer(clients, test, cfg);
  fl::ModelTrajectory traj;
  for (int r = 1; r <= cfg.rounds; ++r) {
    (void)trainer.round(r);
    traj.record(trainer.global().prototypes());
  }
  const auto fit = traj.fit();
  EXPECT_GT(fit.exponent, 0.3) << "trajectory should decay toward the fixpoint";
}

// --------------------------------------------------------------- timeline

fl::TimelineConfig fhdnn_timeline() {
  fl::TimelineConfig cfg;
  cfg.workload = perf::ClientWorkload::paper_reference();
  cfg.update_bits = 8'000'000;  // 1 MB
  cfg.fhdnn = true;
  return cfg;
}

TEST(Timeline, RoundCostsComposeComputeAndUpload) {
  auto cfg = fhdnn_timeline();
  cfg.compute_jitter = 0.0;
  const fl::FlTimeline tl(cfg);
  Rng rng(3);
  const auto rounds = tl.simulate(5, 4, rng);
  ASSERT_EQ(rounds.size(), 5U);
  const auto base = perf::fhdnn_local_training(cfg.device, cfg.workload);
  const double upload = cfg.link.upload_seconds(cfg.update_bits, true);
  for (const auto& r : rounds) {
    EXPECT_NEAR(r.compute_seconds, base.seconds, 1e-9);
    EXPECT_NEAR(r.upload_seconds, upload, 1e-9);
    EXPECT_NEAR(r.total_seconds, base.seconds + upload, 1e-9);
  }
  EXPECT_NEAR(fl::FlTimeline::campaign_seconds(rounds),
              5.0 * (base.seconds + upload), 1e-6);
}

TEST(Timeline, JitterMakesSlowestParticipantDominate) {
  auto cfg = fhdnn_timeline();
  cfg.compute_jitter = 0.3;
  const fl::FlTimeline tl(cfg);
  Rng rng(4);
  const auto solo = tl.simulate(40, 1, rng);
  Rng rng2(4);
  const auto crowd = tl.simulate(40, 16, rng2);
  double solo_mean = 0.0, crowd_mean = 0.0;
  for (const auto& r : solo) solo_mean += r.compute_seconds;
  for (const auto& r : crowd) crowd_mean += r.compute_seconds;
  // Max of 16 jittered draws is systematically larger than a single draw.
  EXPECT_GT(crowd_mean, solo_mean * 1.1);
}

TEST(Timeline, CnnSlowerPerRoundThanFhdnn) {
  auto fhdnn_cfg = fhdnn_timeline();
  auto cnn_cfg = fhdnn_cfg;
  cnn_cfg.fhdnn = false;
  cnn_cfg.update_bits = 22ULL * 8'000'000;  // 22 MB at the coded rate
  Rng r1(5), r2(5);
  // On the Pi the Table-1 compute gap is ~1.55x; on the Jetson ~5.7x.
  const auto f = fl::FlTimeline(fhdnn_cfg).simulate(3, 4, r1);
  const auto c = fl::FlTimeline(cnn_cfg).simulate(3, 4, r2);
  EXPECT_GT(c[0].total_seconds, 1.2 * f[0].total_seconds);

  fhdnn_cfg.device = perf::DeviceProfile::jetson();
  cnn_cfg.device = perf::DeviceProfile::jetson();
  Rng r3(5), r4(5);
  const auto fj = fl::FlTimeline(fhdnn_cfg).simulate(3, 4, r3);
  const auto cj = fl::FlTimeline(cnn_cfg).simulate(3, 4, r4);
  EXPECT_GT(cj[0].total_seconds, 3.0 * fj[0].total_seconds);
}

TEST(Timeline, SecondsToAccuracy) {
  auto cfg = fhdnn_timeline();
  cfg.compute_jitter = 0.0;
  const fl::FlTimeline tl(cfg);
  Rng rng(6);
  const auto rounds = tl.simulate(5, 2, rng);
  fl::TrainingHistory hist;
  for (int r = 1; r <= 5; ++r) {
    fl::RoundMetrics m;
    m.round = r;
    m.test_accuracy = 0.2 * r;  // hits 0.6 at round 3
    hist.add(m);
  }
  const double t = tl.seconds_to_accuracy(hist, 0.6, rounds);
  EXPECT_NEAR(t, 3.0 * rounds[0].total_seconds, 1e-6);
  EXPECT_LT(tl.seconds_to_accuracy(hist, 1.5, rounds), 0.0);
}

TEST(Timeline, Validation) {
  auto cfg = fhdnn_timeline();
  cfg.update_bits = 0;
  EXPECT_THROW(fl::FlTimeline{cfg}, Error);
  cfg = fhdnn_timeline();
  cfg.compute_jitter = 1.5;
  EXPECT_THROW(fl::FlTimeline{cfg}, Error);
}

// ------------------------------------------------- update subsampling

TEST(UpdateSubsampling, ReducesTrafficAndStillLearns) {
  Rng rng(7);
  auto full = data::synthetic_mnist(400, rng);
  auto split = data::train_test_split(full, 0.2, rng);
  const auto parts = data::partition_iid(split.train, 4, rng);
  fl::ModelFactory factory = [](Rng& r) { return nn::make_cnn2(1, 28, 10, r); };

  fl::FedAvgConfig cfg;
  cfg.n_clients = 4;
  cfg.client_fraction = 0.5;
  cfg.local_epochs = 2;
  cfg.batch_size = 16;
  cfg.rounds = 6;
  cfg.seed = 8;

  fl::FedAvgTrainer full_tr(factory, split.train, parts, split.test, cfg);
  const auto full_hist = full_tr.run();

  cfg.update_fraction = 0.5;
  fl::FedAvgTrainer sub_tr(factory, split.train, parts, split.test, cfg);
  const auto sub_hist = sub_tr.run();

  // Uplink bytes count the scalars actually transmitted by each client's
  // Bernoulli(q) mask, so the ratio matches q only up to sampling noise
  // (a few sigma of a Binomial over ~10^4 scalars per client).
  const auto full_bytes = static_cast<double>(full_hist.rounds()[0].bytes_uplink);
  const auto sub_bytes = static_cast<double>(sub_hist.rounds()[0].bytes_uplink);
  EXPECT_NEAR(sub_bytes, 0.5 * full_bytes, 0.02 * full_bytes);
  // Compression slows but must not destroy learning.
  EXPECT_GT(sub_hist.final_accuracy(), 0.35);
  EXPECT_GE(full_hist.final_accuracy() + 0.05, sub_hist.final_accuracy());
}

TEST(UpdateSubsampling, ValidatesFraction) {
  Rng rng(9);
  auto full = data::synthetic_mnist(50, rng);
  const auto parts = data::partition_iid(full, 2, rng);
  fl::ModelFactory factory = [](Rng& r) { return nn::make_cnn2(1, 28, 10, r); };
  fl::FedAvgConfig cfg;
  cfg.n_clients = 2;
  cfg.update_fraction = 0.0;
  EXPECT_THROW(fl::FedAvgTrainer(factory, full, parts, full, cfg), Error);
}

}  // namespace
}  // namespace fhdnn
