// Tests for src/fl: sampler, history, FedAvg and FedHd trainers.
#include <gtest/gtest.h>

#include <set>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "fl/history.hpp"
#include "fl/sampler.hpp"
#include "hdc/encoder.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "util/error.hpp"

namespace fhdnn {
namespace {

// ---------------------------------------------------------------- sampler

TEST(Sampler, FractionRounding) {
  EXPECT_EQ(fl::ClientSampler(100, 0.2).clients_per_round(), 20U);
  EXPECT_EQ(fl::ClientSampler(10, 0.01).clients_per_round(), 1U);  // min 1
  EXPECT_EQ(fl::ClientSampler(7, 1.0).clients_per_round(), 7U);
  EXPECT_THROW(fl::ClientSampler(0, 0.5), Error);
  EXPECT_THROW(fl::ClientSampler(10, 0.0), Error);
  EXPECT_THROW(fl::ClientSampler(10, 1.5), Error);
}

TEST(Sampler, DistinctSortedInRange) {
  fl::ClientSampler s(50, 0.3);
  Rng rng(1);
  for (int t = 0; t < 20; ++t) {
    const auto picks = s.sample(rng);
    EXPECT_EQ(picks.size(), 15U);
    EXPECT_TRUE(std::is_sorted(picks.begin(), picks.end()));
    std::set<std::size_t> uniq(picks.begin(), picks.end());
    EXPECT_EQ(uniq.size(), picks.size());
    for (const auto c : picks) EXPECT_LT(c, 50U);
  }
}

TEST(Sampler, ExplicitCountZeroDrawsNothing) {
  // Regression: sample(rng, 0) used to clamp k to 1 and return one
  // participant; an empty draw must stay empty (the engine's timed modes
  // compute k themselves and rely on exact counts). Oversized k still
  // clamps to the fleet.
  fl::ClientSampler s(8, 0.5);
  Rng rng(4);
  EXPECT_TRUE(s.sample(rng, 0).empty());
  EXPECT_EQ(s.sample(rng, 3).size(), 3U);
  EXPECT_EQ(s.sample(rng, 100).size(), 8U);  // clamped to n_clients
}

TEST(Sampler, SameSeedSameParticipantsEveryRound) {
  fl::ClientSampler s(40, 0.25);
  Rng a(123);
  Rng b(123);
  for (int r = 1; r <= 10; ++r) {
    Rng fa = a.fork("round-" + std::to_string(r)).fork("sample");
    Rng fb = b.fork("round-" + std::to_string(r)).fork("sample");
    EXPECT_EQ(s.sample(fa), s.sample(fb)) << "round " << r;
  }
}

TEST(Sampler, DeliveryFlagsMatchTrainerDropoutCoins) {
  // draw_delivery_flags is the engine's dropout primitive: coins are drawn
  // serially in participant order from the round's "dropout" fork, so the
  // outcome depends only on (seed, round, participant count).
  Rng a(9);
  Rng b(9);
  Rng fa = a.fork("round-3").fork("dropout");
  Rng fb = b.fork("round-3").fork("dropout");
  EXPECT_EQ(fl::draw_delivery_flags(12, 0.35, fa),
            fl::draw_delivery_flags(12, 0.35, fb));
}

TEST(Sampler, EventuallyCoversAllClients) {
  fl::ClientSampler s(10, 0.2);
  Rng rng(2);
  std::set<std::size_t> seen;
  for (int t = 0; t < 100; ++t) {
    for (const auto c : s.sample(rng)) seen.insert(c);
  }
  EXPECT_EQ(seen.size(), 10U);
}

// ---------------------------------------------------------------- history

TEST(History, RoundsToAccuracy) {
  fl::TrainingHistory h;
  EXPECT_EQ(h.final_accuracy(), 0.0);
  fl::RoundMetrics m;
  m.round = 1;
  m.test_accuracy = 0.5;
  h.add(m);
  m.round = 2;
  m.test_accuracy = 0.8;
  h.add(m);
  m.round = 3;
  m.test_accuracy = 0.7;
  h.add(m);
  EXPECT_EQ(h.final_accuracy(), 0.7);
  ASSERT_TRUE(h.rounds_to_accuracy(0.75).has_value());
  EXPECT_EQ(*h.rounds_to_accuracy(0.75), 2);
  EXPECT_FALSE(h.rounds_to_accuracy(0.9).has_value());
}

// ---------------------------------------------------------------- fedavg

struct FedAvgFixture {
  data::Dataset train, test;
  data::ClientIndices parts;

  explicit FedAvgFixture(std::uint64_t seed) {
    Rng rng(seed);
    auto full = data::synthetic_mnist(500, rng);
    auto split = data::train_test_split(full, 0.2, rng);
    train = std::move(split.train);
    test = std::move(split.test);
    parts = data::partition_iid(train, 5, rng);
  }

  fl::ModelFactory factory() const {
    return [](Rng& rng) { return nn::make_cnn2(1, 28, 10, rng); };
  }
};

TEST(FedAvg, LearnsOverRounds) {
  FedAvgFixture fx(1);
  fl::FedAvgConfig cfg;
  cfg.n_clients = 5;
  cfg.client_fraction = 0.4;
  cfg.local_epochs = 2;
  cfg.batch_size = 16;
  cfg.rounds = 8;
  cfg.lr = 0.05F;
  cfg.seed = 2;
  fl::FedAvgTrainer trainer(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const auto hist = trainer.run();
  EXPECT_EQ(hist.size(), 8U);
  EXPECT_GT(hist.final_accuracy(), 0.55);
  EXPECT_GT(hist.final_accuracy(), hist.rounds().front().test_accuracy);
}

TEST(FedAvg, DeterministicGivenSeed) {
  FedAvgFixture fx(3);
  fl::FedAvgConfig cfg;
  cfg.n_clients = 5;
  cfg.client_fraction = 0.4;
  cfg.local_epochs = 1;
  cfg.batch_size = 32;
  cfg.rounds = 2;
  cfg.seed = 7;
  fl::FedAvgTrainer t1(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  fl::FedAvgTrainer t2(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const auto h1 = t1.run();
  const auto h2 = t2.run();
  for (std::size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1.rounds()[i].test_accuracy, h2.rounds()[i].test_accuracy);
  }
}

TEST(FedAvg, TracksUplinkBytes) {
  FedAvgFixture fx(4);
  fl::FedAvgConfig cfg;
  cfg.n_clients = 5;
  cfg.client_fraction = 0.4;  // 2 clients/round
  cfg.local_epochs = 1;
  cfg.batch_size = 64;
  cfg.rounds = 2;
  cfg.seed = 5;
  fl::FedAvgTrainer trainer(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const auto hist = trainer.run();
  const auto scalars =
      static_cast<std::uint64_t>(nn::state_size(trainer.global_model()));
  EXPECT_EQ(hist.rounds()[0].bytes_uplink, 2 * scalars * 4);
  EXPECT_EQ(hist.rounds()[0].clients, 2U);
}

TEST(FedAvg, CorruptedUplinkDegrades) {
  FedAvgFixture fx(6);
  fl::FedAvgConfig cfg;
  cfg.n_clients = 5;
  cfg.client_fraction = 0.4;
  cfg.local_epochs = 1;
  cfg.batch_size = 16;
  cfg.rounds = 4;
  cfg.seed = 8;
  fl::FedAvgTrainer clean(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const double clean_acc = clean.run().final_accuracy();

  const auto chan = channel::make_packet_loss(0.3, 1024);
  fl::FedAvgTrainer lossy(fx.factory(), fx.train, fx.parts, fx.test, cfg,
                          chan.get());
  const auto lossy_hist = lossy.run();
  EXPECT_LT(lossy_hist.final_accuracy(), clean_acc);
  EXPECT_GT(lossy_hist.rounds()[0].packets_lost, 0U);
}

TEST(FedAvg, ValidatesPartitionSize) {
  FedAvgFixture fx(9);
  fl::FedAvgConfig cfg;
  cfg.n_clients = 6;  // but partition has 5
  EXPECT_THROW(fl::FedAvgTrainer(fx.factory(), fx.train, fx.parts, fx.test,
                                 cfg),
               Error);
}

// ---------------------------------------------------------------- fedhd

struct FedHdFixture {
  std::vector<fl::HdClientData> clients;
  fl::HdClientData test;
  static constexpr std::int64_t kDim = 1024;
  static constexpr std::int64_t kClasses = 4;

  explicit FedHdFixture(std::uint64_t seed, std::size_t n_clients = 6) {
    Rng rng(seed);
    data::IsoletSpec spec;
    spec.dims = 32;
    spec.classes = kClasses;
    spec.n = 600;
    spec.separation = 1.4;
    const auto ds = data::make_isolet_like(spec, rng);
    Rng enc_rng = rng.fork("enc");
    hdc::RandomProjectionEncoder enc(32, kDim, enc_rng);
    auto split = data::train_test_split(ds, 0.2, rng);
    test = fl::HdClientData{enc.encode(split.test.x), split.test.labels};
    const auto parts = data::partition_iid(split.train, n_clients, rng);
    for (const auto& part : parts) {
      const auto sub = split.train.subset(part);
      clients.push_back(fl::HdClientData{enc.encode(sub.x), sub.labels});
    }
  }

  fl::FedHdConfig config(std::uint64_t seed) const {
    fl::FedHdConfig cfg;
    cfg.n_clients = clients.size();
    cfg.client_fraction = 0.5;
    cfg.local_epochs = 2;
    cfg.rounds = 5;
    cfg.num_classes = kClasses;
    cfg.hd_dim = kDim;
    cfg.seed = seed;
    return cfg;
  }
};

TEST(FedHd, ConvergesOnSeparableData) {
  FedHdFixture fx(10);
  fl::FedHdTrainer trainer(fx.clients, fx.test, fx.config(11));
  const auto hist = trainer.run();
  EXPECT_EQ(hist.size(), 5U);
  EXPECT_GT(hist.final_accuracy(), 0.9);
  // One-shot bundling gives high accuracy immediately (fast convergence).
  EXPECT_GT(hist.rounds().front().test_accuracy, 0.8);
}

TEST(FedHd, DeterministicGivenSeed) {
  FedHdFixture fx(12);
  fl::FedHdTrainer t1(fx.clients, fx.test, fx.config(13));
  fl::FedHdTrainer t2(fx.clients, fx.test, fx.config(13));
  const auto h1 = t1.run();
  const auto h2 = t2.run();
  for (std::size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1.rounds()[i].test_accuracy, h2.rounds()[i].test_accuracy);
  }
}

TEST(FedHd, UpdateBytesAccounting) {
  FedHdFixture fx(16);
  auto cfg = fx.config(17);
  fl::FedHdTrainer trainer(fx.clients, fx.test, cfg);
  // Perfect mode with quantizer: B=16 bits per scalar.
  EXPECT_EQ(trainer.update_bytes(),
            static_cast<std::uint64_t>(FedHdFixture::kClasses) *
                FedHdFixture::kDim * 2);
}

TEST(FedHd, RobustToPacketLoss) {
  FedHdFixture fx(18);
  auto cfg = fx.config(19);
  cfg.uplink.mode = channel::HdUplinkMode::PacketLoss;
  cfg.uplink.loss_rate = 0.2;
  fl::FedHdTrainer trainer(fx.clients, fx.test, cfg);
  const auto hist = trainer.run();
  EXPECT_GT(hist.final_accuracy(), 0.85) << "HD should tolerate 20% loss";
  EXPECT_GT(hist.rounds()[0].packets_lost, 0U);
}

TEST(FedHd, RobustToBitErrorsWithQuantizer) {
  FedHdFixture fx(20);
  auto cfg = fx.config(21);
  cfg.uplink.mode = channel::HdUplinkMode::BitErrors;
  cfg.uplink.ber = 1e-4;
  fl::FedHdTrainer trainer(fx.clients, fx.test, cfg);
  const auto hist = trainer.run();
  EXPECT_GT(hist.final_accuracy(), 0.8);
  EXPECT_GT(hist.rounds()[0].bit_flips, 0U);
}

TEST(FedHd, NoisyDownlinkTolerated) {
  // Relax the paper's error-free broadcast assumption: FHDnn should also
  // tolerate a moderately noisy downlink, by the same holographic argument.
  FedHdFixture fx(50);
  auto cfg = fx.config(51);
  cfg.downlink.mode = channel::HdUplinkMode::Awgn;
  cfg.downlink.snr_db = 15.0;
  fl::FedHdTrainer trainer(fx.clients, fx.test, cfg);
  EXPECT_GT(trainer.run().final_accuracy(), 0.85);
}

TEST(FedHd, PerfectDownlinkUnchangedBehaviour) {
  // Default downlink must reproduce the original (uplink-only) results
  // bit-for-bit — the RNG fork for the downlink only fires when enabled.
  FedHdFixture fx(52);
  auto cfg = fx.config(53);
  fl::FedHdTrainer a(fx.clients, fx.test, cfg);
  cfg.downlink.snr_db = 3.0;  // parameters differ but mode stays Perfect
  fl::FedHdTrainer b(fx.clients, fx.test, cfg);
  const auto ha = a.run();
  const auto hb = b.run();
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha.rounds()[i].test_accuracy, hb.rounds()[i].test_accuracy);
  }
}

TEST(FedHd, BinaryTransportStillConverges) {
  FedHdFixture fx(30);
  auto cfg = fx.config(31);
  cfg.uplink.binary_transport = true;
  fl::FedHdTrainer trainer(fx.clients, fx.test, cfg);
  const auto hist = trainer.run();
  EXPECT_GT(hist.final_accuracy(), 0.85);
  // 1 bit per scalar.
  EXPECT_EQ(trainer.update_bytes(),
            static_cast<std::uint64_t>(FedHdFixture::kClasses) *
                FedHdFixture::kDim / 8);
}

TEST(FedHd, SurvivesClientDropout) {
  FedHdFixture fx(32);
  auto cfg = fx.config(33);
  cfg.dropout_prob = 0.5;
  cfg.rounds = 6;
  fl::FedHdTrainer trainer(fx.clients, fx.test, cfg);
  const auto hist = trainer.run();
  EXPECT_GT(hist.final_accuracy(), 0.85);
  // Some rounds must have had fewer than the sampled 3 participants.
  bool saw_reduced = false;
  for (const auto& m : hist.rounds()) saw_reduced |= (m.clients < 3);
  EXPECT_TRUE(saw_reduced);
}

TEST(FedAvg, SurvivesModerateDropout) {
  FedAvgFixture fx(33);
  fl::FedAvgConfig cfg;
  cfg.n_clients = 5;
  cfg.client_fraction = 0.8;  // 4 sampled per round
  cfg.local_epochs = 1;
  cfg.batch_size = 16;
  cfg.rounds = 6;
  cfg.dropout_prob = 0.25;
  cfg.seed = 34;
  fl::FedAvgTrainer trainer(fx.factory(), fx.train, fx.parts, fx.test, cfg);
  const auto hist = trainer.run();
  EXPECT_GT(hist.final_accuracy(), 0.4);
  bool saw_reduced = false;
  for (const auto& m : hist.rounds()) saw_reduced |= (m.clients < 4);
  EXPECT_TRUE(saw_reduced);
}

TEST(FedHd, ValidatesInputs) {
  FedHdFixture fx(22);
  auto cfg = fx.config(23);
  cfg.n_clients = fx.clients.size() + 1;
  EXPECT_THROW(fl::FedHdTrainer(fx.clients, fx.test, cfg), Error);
  cfg = fx.config(23);
  cfg.hd_dim = 999;  // mismatched d
  EXPECT_THROW(fl::FedHdTrainer(fx.clients, fx.test, cfg), Error);
}

}  // namespace
}  // namespace fhdnn
