// Tests for the generic federated round engine (fl/engine.hpp) and the
// transport seam (channel/transport.hpp).
//
// The golden-history tests pin the exact per-round metrics both trainers
// produced *before* they were rewritten on top of RoundEngine (captured
// from the pre-refactor implementations at FHDNN_THREADS=1 and 4, which
// agreed bit-for-bit). They are the refactor's no-behavior-change proof:
// every double is compared exactly, every counter exactly, at two thread
// counts. wall_seconds is deliberately NOT compared — it is the one
// RoundMetrics field outside the determinism contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "channel/transport.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/engine.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "hdc/encoder.hpp"
#include "nn/resnet.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace fhdnn {
namespace {

/// Restores the configured thread count and SIMD tier when a test exits.
class ThreadGuard {
 public:
  ThreadGuard()
      : saved_(parallel::num_threads()), tier_(util::active_simd()) {}
  ~ThreadGuard() {
    parallel::set_num_threads(saved_);
    util::set_simd_tier(tier_);
  }

 private:
  int saved_;
  util::SimdTier tier_;
};

/// Runs `check` under every available tier at 1 and 4 threads: the golden
/// histories are the same bits whichever kernels produced them.
template <typename Check>
void at_every_tier_and_thread_count(Check check) {
  ThreadGuard guard;
  for (const auto tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string("tier=") +
                   std::string(util::simd_tier_name(tier)) +
                   " threads=" + std::to_string(threads));
      parallel::set_num_threads(threads);
      check();
    }
  }
}

// ------------------------------------------------------- golden histories

struct GoldenRound {
  double acc;
  double loss;
  std::size_t clients;
  std::uint64_t bytes;
  std::uint64_t bits;
  std::uint64_t flips;
  std::uint64_t lost;
};

/// FedAvg fixture: 4 clients on synthetic MNIST, C=0.75, dropout 0.4,
/// update subsampling 0.5, lossy packet channel — exercises the "mask" and
/// "channel" client-stream forks, delivery coins, and weighted averaging.
fl::TrainingHistory run_golden_fedavg(const channel::Channel* chan) {
  Rng rng(21);
  auto full = data::synthetic_mnist(300, rng);
  auto split = data::train_test_split(full, 0.2, rng);
  auto parts = data::partition_iid(split.train, 4, rng);
  fl::ModelFactory factory = [](Rng& r) { return nn::make_cnn2(1, 28, 10, r); };
  fl::FedAvgConfig cfg;
  cfg.n_clients = 4;
  cfg.client_fraction = 0.75;
  cfg.local_epochs = 1;
  cfg.batch_size = 16;
  cfg.rounds = 3;
  cfg.seed = 22;
  cfg.dropout_prob = 0.4;
  cfg.update_fraction = 0.5;
  fl::FedAvgTrainer trainer(factory, split.train, parts, split.test, cfg,
                            chan);
  return trainer.run();
}

/// FedHd fixture: 6 clients on isolet-like data (separation low enough that
/// refinement keeps making mistakes, so train_loss is nonzero), C=0.5,
/// dropout 0.3, bit-error uplink, AWGN downlink — exercises the "downlink"
/// round fork, the "channel-<id>" per-client forks, and bundling.
/// `tweak` adjusts the config before the run (the binary-uplink pin);
/// `classes` sets K for both the data and the model.
fl::TrainingHistory run_golden_fedhd(
    void (*tweak)(fl::FedHdConfig&) = nullptr, std::int64_t classes = 4) {
  Rng rng(31);
  data::IsoletSpec spec;
  spec.dims = 32;
  spec.classes = classes;
  spec.n = 400;
  spec.separation = 0.5;
  const auto ds = data::make_isolet_like(spec, rng);
  Rng enc_rng = rng.fork("enc");
  hdc::RandomProjectionEncoder enc(32, 512, enc_rng);
  const auto split = data::train_test_split(ds, 0.2, rng);
  const fl::HdClientData test{enc.encode(split.test.x), split.test.labels};
  const auto parts = data::partition_iid(split.train, 6, rng);
  std::vector<fl::HdClientData> clients;
  for (const auto& part : parts) {
    const auto sub = split.train.subset(part);
    clients.push_back({enc.encode(sub.x), sub.labels});
  }
  fl::FedHdConfig cfg;
  cfg.n_clients = 6;
  cfg.client_fraction = 0.5;
  cfg.local_epochs = 2;
  cfg.rounds = 3;
  cfg.num_classes = classes;
  cfg.hd_dim = 512;
  cfg.seed = 32;
  cfg.dropout_prob = 0.3;
  cfg.uplink.mode = channel::HdUplinkMode::BitErrors;
  cfg.uplink.ber = 1e-4;
  cfg.downlink.mode = channel::HdUplinkMode::Awgn;
  cfg.downlink.snr_db = 15.0;
  if (tweak != nullptr) tweak(cfg);
  fl::FedHdTrainer trainer(clients, test, cfg);
  return trainer.run();
}

void expect_matches_golden(const fl::TrainingHistory& h,
                           const std::vector<GoldenRound>& golden) {
  ASSERT_EQ(h.rounds().size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto& m = h.rounds()[i];
    const auto& g = golden[i];
    SCOPED_TRACE("round " + std::to_string(i + 1));
    EXPECT_EQ(m.test_accuracy, g.acc);  // exact: hexfloat-pinned doubles
    EXPECT_EQ(m.train_loss, g.loss);
    EXPECT_EQ(m.clients, g.clients);
    EXPECT_EQ(m.bytes_uplink, g.bytes);
    EXPECT_EQ(m.bits_on_air, g.bits);
    EXPECT_EQ(m.bit_flips, g.flips);
    EXPECT_EQ(m.packets_lost, g.lost);
  }
}

TEST(GoldenHistory, FedAvgMatchesPreRefactorRunAtEveryTierAndThreadCount) {
  const std::vector<GoldenRound> golden = {
      {0x1.1111111111111p-2, 0x1.577e9c6aaaaabp+1, 3, 1240608, 19864512, 0,
       3925},
      {0x1.7777777777777p-3, 0x1.1feab830e38e3p+1, 3, 1241768, 19864512, 0,
       3876},
      {0x1.3333333333333p-2, 0x1.227d686d55556p+1, 2, 828192, 13243008, 0,
       2544},
  };
  at_every_tier_and_thread_count([&] {
    const auto chan = channel::make_packet_loss(0.2, 1024);
    expect_matches_golden(run_golden_fedavg(chan.get()), golden);
  });
}

TEST(GoldenHistory, FedHdMatchesPreRefactorRunAtEveryTierAndThreadCount) {
  const std::vector<GoldenRound> golden = {
      {0x1.6666666666666p-1, 0x1.948b0fcd6e9ep-8, 3, 12288, 98304, 12, 0},
      {0x1.8666666666666p-1, 0x1.68a7725080ce1p-5, 3, 12288, 98304, 11, 0},
      {0x1.8p-1, 0x1.cfb2b78c13522p-6, 2, 8192, 65536, 9, 0},
  };
  at_every_tier_and_thread_count(
      [&] { expect_matches_golden(run_golden_fedhd(), golden); });
}

/// The golden FedHd run with a one-bit sign uplink at BER 1e-2: the server
/// bundles bipolar client models, so every bit flip moves the history.
void binary_uplink(fl::FedHdConfig& cfg) {
  cfg.uplink.binary_transport = true;
  cfg.uplink.ber = 1e-2;
}

TEST(GoldenHistory, FedHdBinaryUplinkIsPinnedAtEveryTierAndThreadCount) {
  const std::vector<GoldenRound> golden = {
      {0x1.6cccccccccccdp-1, 0x1.948b0fcd6e9ep-8, 3, 768, 6144, 61, 0},
      {0x1.8p-1, 0x1.2840670b453b9p-3, 3, 768, 6144, 62, 0},
      {0x1.5333333333333p-1, 0x1.04d4873ecade3p-2, 2, 512, 4096, 48, 0},
  };
  at_every_tier_and_thread_count([&] {
    expect_matches_golden(run_golden_fedhd(&binary_uplink), golden);
  });
}

/// K = 26 (ISOLET's class count) over the default BER 1e-4 bit-error
/// uplink, whose prototypes cross the 16-bit AGC quantizer: the class lanes
/// run past one 16-lane register, so the refine and cosine kernels' lane
/// edges and the quantizer are covered end to end.
TEST(GoldenHistory, FedHdTwentySixClassesIsPinnedAtEveryTierAndThreadCount) {
  const std::vector<GoldenRound> golden = {
      {0x1p-2, 0x1.9c2d14ee4a101p-6, 3, 79872, 638976, 71, 0},
      {0x1.ccccccccccccdp-3, 0x1.3521cfb2b78c1p-3, 3, 79872, 638976, 65, 0},
      {0x1.ccccccccccccdp-3, 0x1.f656f1826a43ap-4, 2, 53248, 425984, 54, 0},
  };
  at_every_tier_and_thread_count(
      [&] { expect_matches_golden(run_golden_fedhd(nullptr, 26), golden); });
}

// ------------------------------------- sampling/dropout stream prediction

/// Replays the engine's named-fork layout by hand: participants come from
/// root.fork("round-r").fork("sample"), delivery coins from .fork("dropout")
/// in participant order. Both trainers must match this prediction exactly
/// (same engine, same streams), at every thread count.
struct RoundPrediction {
  std::vector<std::size_t> participants;
  std::size_t delivered;
};

std::vector<RoundPrediction> predict_rounds(std::uint64_t seed,
                                            std::size_t n_clients,
                                            double fraction, double dropout,
                                            int rounds) {
  Rng root(seed);
  fl::ClientSampler sampler(n_clients, fraction);
  std::vector<RoundPrediction> out;
  for (int r = 1; r <= rounds; ++r) {
    Rng round_rng = root.fork("round-" + std::to_string(r));
    Rng sample_rng = round_rng.fork("sample");
    RoundPrediction p;
    p.participants = sampler.sample(sample_rng);
    Rng dropout_rng = round_rng.fork("dropout");
    const auto flags =
        fl::draw_delivery_flags(p.participants.size(), dropout, dropout_rng);
    p.delivered = 0;
    for (const char f : flags) p.delivered += (f != 0) ? 1U : 0U;
    out.push_back(std::move(p));
  }
  return out;
}

TEST(EngineStreams, FedHdSamplingAndDropoutMatchPredictionAcrossThreads) {
  const auto predicted = predict_rounds(32, 6, 0.5, 0.3, 3);
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    const auto h = run_golden_fedhd();
    ASSERT_EQ(h.rounds().size(), predicted.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      const auto& m = h.rounds()[i];
      EXPECT_EQ(m.sampled, predicted[i].participants.size());
      EXPECT_EQ(m.clients, predicted[i].delivered);
      EXPECT_EQ(m.dropped,
                predicted[i].participants.size() - predicted[i].delivered);
    }
  }
}

TEST(EngineStreams, FedAvgSamplingAndDropoutMatchPredictionAcrossThreads) {
  const auto predicted = predict_rounds(22, 4, 0.75, 0.4, 3);
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    const auto chan = channel::make_packet_loss(0.2, 1024);
    const auto h = run_golden_fedavg(chan.get());
    ASSERT_EQ(h.rounds().size(), predicted.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      const auto& m = h.rounds()[i];
      EXPECT_EQ(m.sampled, predicted[i].participants.size());
      EXPECT_EQ(m.clients, predicted[i].delivered);
      EXPECT_EQ(m.dropped,
                predicted[i].participants.size() - predicted[i].delivered);
    }
  }
}

TEST(EngineStreams, DeliveryFlagsAreSeedDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng fa = a.fork("dropout");
  Rng fb = b.fork("dropout");
  const auto x = fl::draw_delivery_flags(64, 0.5, fa);
  const auto y = fl::draw_delivery_flags(64, 0.5, fb);
  EXPECT_EQ(x, y);
  std::size_t kept = 0;
  for (const char f : x) kept += (f != 0) ? 1U : 0U;
  EXPECT_GT(kept, 0U);   // p=0.5 over 64 coins: both outcomes present
  EXPECT_LT(kept, 64U);
}

TEST(EngineStreams, ZeroDropoutDeliversEveryone) {
  Rng rng(7);
  const auto flags = fl::draw_delivery_flags(16, 0.0, rng);
  for (const char f : flags) EXPECT_EQ(f, 1);
}

// -------------------------------------------------- engine unit (mock)

/// Minimal protocol: counts calls, reports fixed losses/stats, and records
/// the exact (participants, delivered) pair reduce() saw.
class MockProtocol final : public fl::RoundProtocol {
 public:
  void begin_round(const Rng& /*round_rng*/, std::size_t n) override {
    ++begin_calls;
    last_slots = n;
  }

  fl::ClientReport run_client(std::size_t /*slot*/, std::size_t client,
                              const Rng& /*round_rng*/,
                              bool delivered) override {
    fl::ClientReport r;
    r.loss = static_cast<double>(client) + 1.0;
    if (delivered) {
      r.stats.payload_bytes = 100;
      r.stats.bits_on_air = 800;
      r.stats.bit_flips = 3;
      r.stats.packets_lost = 1;
    }
    return r;
  }

  void reduce(const std::vector<std::size_t>& participants,
              const std::vector<char>& delivered) override {
    ++reduce_calls;
    last_participants = participants;
    last_delivered = delivered;
  }

  double evaluate() override {
    ++eval_calls;
    return 0.5 * static_cast<double>(eval_calls);
  }

  int begin_calls = 0;
  int reduce_calls = 0;
  int eval_calls = 0;
  std::size_t last_slots = 0;
  std::vector<std::size_t> last_participants;
  std::vector<char> last_delivered;
};

fl::EngineConfig small_engine_config() {
  fl::EngineConfig cfg;
  cfg.n_clients = 8;
  cfg.client_fraction = 0.5;
  cfg.rounds = 4;
  cfg.eval_every = 2;
  cfg.dropout_prob = 0.0;
  cfg.seed = 5;
  cfg.name = "mock";
  return cfg;
}

TEST(RoundEngine, AccountsTrafficLossAndCountsPerRound) {
  MockProtocol protocol;
  fl::RoundEngine engine(small_engine_config(), protocol);
  const auto m = engine.round(1);
  EXPECT_EQ(m.round, 1);
  EXPECT_EQ(m.sampled, 4U);  // 0.5 * 8
  EXPECT_EQ(m.clients, 4U);  // no dropout
  EXPECT_EQ(m.dropped, 0U);
  EXPECT_EQ(m.bytes_uplink, 400U);
  EXPECT_EQ(m.bits_on_air, 3200U);
  EXPECT_EQ(m.bit_flips, 12U);
  EXPECT_EQ(m.packets_lost, 4U);
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_EQ(protocol.begin_calls, 1);
  EXPECT_EQ(protocol.reduce_calls, 1);
  EXPECT_EQ(protocol.last_slots, 4U);
  // Loss averages over delivered participants: mean of (client_id + 1).
  double expected = 0.0;
  for (const std::size_t c : protocol.last_participants) {
    expected += static_cast<double>(c) + 1.0;
  }
  expected /= static_cast<double>(protocol.last_participants.size());
  EXPECT_DOUBLE_EQ(m.train_loss, expected);
}

TEST(RoundEngine, EvalScheduleCarriesAccuracyForward) {
  MockProtocol protocol;
  fl::RoundEngine engine(small_engine_config(), protocol);
  const auto h = engine.run();  // eval_every=2, rounds=4
  ASSERT_EQ(h.rounds().size(), 4U);
  // Rounds 2 and 4 evaluate; 1 and 3 carry the previous value forward
  // (round 1 has nothing to carry -> 0).
  EXPECT_EQ(protocol.eval_calls, 2);
  EXPECT_EQ(h.rounds()[0].test_accuracy, 0.0);
  EXPECT_EQ(h.rounds()[1].test_accuracy, 0.5);
  EXPECT_EQ(h.rounds()[2].test_accuracy, 0.5);
  EXPECT_EQ(h.rounds()[3].test_accuracy, 1.0);
}

TEST(RoundEngine, AllDroppedRoundSkipsCommitButStillReduces) {
  // dropout_prob can't reach 1.0, but the engine must tolerate every coin
  // landing on "dropped" — emulate by checking the reduce contract with
  // high dropout over many rounds until an all-dropped round occurs.
  MockProtocol protocol;
  auto cfg = small_engine_config();
  cfg.dropout_prob = 0.9;
  cfg.rounds = 30;
  fl::RoundEngine engine(cfg, protocol);
  bool saw_all_dropped = false;
  for (int r = 1; r <= cfg.rounds; ++r) {
    const auto m = engine.round(r);
    EXPECT_EQ(m.sampled, 4U);
    EXPECT_EQ(m.clients + m.dropped, m.sampled);
    if (m.clients == 0) {
      saw_all_dropped = true;
      EXPECT_EQ(m.train_loss, 0.0);
      EXPECT_EQ(m.bytes_uplink, 0U);
    }
  }
  EXPECT_TRUE(saw_all_dropped);  // p=0.9^4 per round over 30 rounds
  EXPECT_EQ(protocol.reduce_calls, cfg.rounds);
}

TEST(RoundEngine, HistoryRecordsPerRoundFields) {
  MockProtocol protocol;
  fl::RoundEngine engine(small_engine_config(), protocol);
  const auto h = engine.run();
  ASSERT_EQ(h.rounds().size(), 4U);
  double wall_seconds = 0.0;
  for (const auto& m : h.rounds()) {
    EXPECT_EQ(m.sampled, 4U);
    EXPECT_EQ(m.dropped, 0U);
    EXPECT_EQ(m.bytes_uplink, 400U);
    wall_seconds += m.wall_seconds;
  }
  EXPECT_GT(wall_seconds, 0.0);
}

TEST(RoundEngine, RejectsInvalidConfig) {
  MockProtocol protocol;
  auto bad_rounds = small_engine_config();
  bad_rounds.rounds = 0;
  EXPECT_THROW(fl::RoundEngine(bad_rounds, protocol), Error);
  auto bad_dropout = small_engine_config();
  bad_dropout.dropout_prob = 1.0;
  EXPECT_THROW(fl::RoundEngine(bad_dropout, protocol), Error);
}

// ------------------------------------------------- transport accounting

TEST(Transport, HdUpdateBytesFollowsTheSharedRule) {
  channel::HdUplinkConfig cfg;  // Perfect + quantizer (16-bit default)
  EXPECT_EQ(channel::hd_bits_per_scalar(cfg), 16U);
  cfg.use_quantizer = false;
  EXPECT_EQ(channel::hd_bits_per_scalar(cfg), 32U);
  cfg.binary_transport = true;  // takes precedence
  EXPECT_EQ(channel::hd_bits_per_scalar(cfg), 1U);
  EXPECT_EQ(channel::hd_update_bytes(cfg, 10), 2U);  // ceil(10/8)
  cfg.binary_transport = false;
  cfg.mode = channel::HdUplinkMode::Awgn;  // analog: always 32
  EXPECT_EQ(channel::hd_bits_per_scalar(cfg), 32U);
}

TEST(Transport, FedHdUpdateBytesRoutesThroughTransport) {
  // One rule, three payload encodings: float32, AGC-quantized, binary.
  Rng rng(1);
  data::IsoletSpec spec;
  spec.dims = 8;
  spec.classes = 2;
  spec.n = 40;
  spec.rank = 4;
  const auto ds = data::make_isolet_like(spec, rng);
  hdc::RandomProjectionEncoder enc(8, 128, rng);
  fl::HdClientData test{enc.encode(ds.x), ds.labels};
  std::vector<fl::HdClientData> clients(2, test);
  fl::FedHdConfig cfg;
  cfg.n_clients = 2;
  cfg.client_fraction = 1.0;
  cfg.rounds = 1;
  cfg.num_classes = 2;
  cfg.hd_dim = 128;
  const std::uint64_t scalars = 2 * 128;

  cfg.uplink.use_quantizer = false;
  EXPECT_EQ(fl::FedHdTrainer(clients, test, cfg).update_bytes(), scalars * 4);
  cfg.uplink.use_quantizer = true;
  cfg.uplink.quantizer_bits = 16;
  EXPECT_EQ(fl::FedHdTrainer(clients, test, cfg).update_bytes(), scalars * 2);
  cfg.uplink.binary_transport = true;
  EXPECT_EQ(fl::FedHdTrainer(clients, test, cfg).update_bytes(), scalars / 8);
}

TEST(Transport, FloatStateTransportValidatesFractionAtConstruction) {
  EXPECT_THROW(channel::FloatStateTransport(0.0, nullptr), Error);
  EXPECT_THROW(channel::FloatStateTransport(1.5, nullptr), Error);
}

TEST(Transport, SubsamplingWithoutBroadcastFailsLoudly) {
  // Regression: update_fraction < 1 needs the round's broadcast snapshot to
  // fall back to for untransmitted scalars. Transmitting without
  // set_broadcast used to be a silent nullptr hazard; it must throw with a
  // message naming the missing call.
  channel::FloatStateTransport transport(0.5, nullptr);
  std::vector<float> update(32, 1.0F);
  Rng client_rng(1);
  const Rng round_rng(2);
  try {
    transport.transmit(update, 0, client_rng, round_rng);
    FAIL() << "expected transmit without a broadcast snapshot to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("set_broadcast"), std::string::npos);
  }
  // With the snapshot installed (or with full updates) it works.
  const std::vector<float> broadcast(32, 0.0F);
  transport.set_broadcast(&broadcast);
  EXPECT_NO_THROW(transport.transmit(update, 0, client_rng, round_rng));
  channel::FloatStateTransport full(1.0, nullptr);
  std::vector<float> update2(32, 1.0F);
  EXPECT_NO_THROW(full.transmit(update2, 0, client_rng, round_rng));
}

}  // namespace
}  // namespace fhdnn
