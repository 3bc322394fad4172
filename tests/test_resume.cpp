// Kill-and-resume equivalence for the round engine (DESIGN.md §13).
//
// For each trainer fixture (FedAvg and FedHd, in deadline and
// buffered-async modes) a golden uninterrupted run pins the history; the
// sweep then kills the aggregator at EVERY event boundary k (CrashPlan,
// with a checkpoint after every event), resumes a fresh trainer from the
// surviving snapshot, and requires the completed history to match the
// golden bit-for-bit (exact doubles — the hexfloat contract), at 1 and 4
// threads. Also covered: boundary-checkpoint resume via run(), the
// snapshot -> restore -> snapshot byte-identity property, fallback to the
// previous generation when the primary checkpoint is corrupted, and a
// round-boundary snapshot whose size does not depend on the registered
// fleet.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/engine.hpp"
#include "fl/faults.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "hdc/encoder.hpp"
#include "nn/resnet.hpp"
#include "tensor/tensor.hpp"
#include "util/bytes.hpp"
#include "util/parallel.hpp"
#include "util/snapshot.hpp"

namespace fhdnn {
namespace {

/// Restores the configured thread count when a test exits.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(parallel::num_threads()) {}
  ~ThreadGuard() { parallel::set_num_threads(saved_); }

 private:
  int saved_;
};

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "fhdnn_resume_" + name;
}

void remove_generations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  return {std::istreambuf_iterator<char>(is), {}};
}

void expect_same_history(const fl::TrainingHistory& golden,
                         const fl::TrainingHistory& resumed) {
  ASSERT_EQ(resumed.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto& a = golden.rounds()[i];
    const auto& b = resumed.rounds()[i];
    SCOPED_TRACE("round " + std::to_string(i + 1));
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);  // exact doubles
    EXPECT_EQ(a.train_loss, b.train_loss);
    EXPECT_EQ(a.clients, b.clients);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.stale_accepted, b.stale_accepted);
    EXPECT_EQ(a.bytes_uplink, b.bytes_uplink);
    EXPECT_EQ(a.bits_on_air, b.bits_on_air);
    EXPECT_EQ(a.bit_flips, b.bit_flips);
    EXPECT_EQ(a.packets_lost, b.packets_lost);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.residual_errors, b.residual_errors);
    EXPECT_EQ(a.simulated_round_seconds, b.simulated_round_seconds);
    EXPECT_EQ(a.events, b.events);
    // wall_seconds is the one non-contract field: real time, not simulated.
  }
}

/// A fixture hands the sweep a factory: build a trainer with the given
/// checkpoint + crash plan. Returned object must own all its data.
template <typename Trainer>
struct Fixture {
  std::function<std::unique_ptr<Trainer>(fl::CheckpointConfig,
                                         fl::CrashPlan)>
      make;
};

/// The sweep itself: golden run, then kill at every event boundary and
/// resume from the surviving checkpoint.
template <typename Trainer>
void kill_resume_sweep(const Fixture<Trainer>& fx, const std::string& tag) {
  const std::string path = tmp_path(tag + ".snap");

  auto golden_trainer = fx.make({}, {});
  const auto golden = golden_trainer->run();
  const std::uint64_t total = golden_trainer->engine().total_events();
  ASSERT_GT(total, 0U) << tag << ": fixture produced no events";

  for (std::uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE(tag + " killed at event " + std::to_string(k));
    remove_generations(path);
    auto victim = fx.make({path, 1}, {true, k});
    bool crashed = false;
    try {
      victim->run();
    } catch (const fl::AggregatorCrash& e) {
      crashed = true;
      EXPECT_EQ(e.at_event(), k);
    }
    ASSERT_TRUE(crashed);

    auto survivor = fx.make({}, {});
    survivor->resume(path);
    const auto resumed = survivor->run();
    expect_same_history(golden, resumed);
  }
}

// ------------------------------------------------------------- fixtures

/// FedAvg on synthetic MNIST, deliberately tiny (the sweep runs the full
/// training once per event boundary). Every robustness knob that shapes
/// the event stream is on: dropout, crashes, stragglers, link multipliers.
struct FedAvgFixtureData {
  data::Dataset train;
  data::Dataset test;
  data::ClientIndices parts;
  std::unique_ptr<channel::Channel> uplink;
};

Fixture<fl::FedAvgTrainer> fedavg_fixture(
    std::shared_ptr<FedAvgFixtureData> data, bool async) {
  Fixture<fl::FedAvgTrainer> fx;
  fx.make = [data, async](fl::CheckpointConfig ck, fl::CrashPlan crash) {
    fl::ModelFactory factory = [](Rng& r) {
      return nn::make_cnn2(1, 28, 10, r);
    };
    fl::FedAvgConfig cfg;
    cfg.n_clients = 4;
    cfg.client_fraction = 0.5;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.rounds = 2;
    cfg.seed = 77;
    cfg.dropout_prob = 0.2;
    cfg.faults.crash_prob = 0.1;
    cfg.faults.straggler_fraction = 0.25;
    cfg.faults.straggler_slowdown = 2.0;
    cfg.faults.error_multiplier_max = 3.0;
    if (async) {
      cfg.async.enabled = true;
      cfg.async.over_selection = 0.5;
      cfg.async.staleness_exponent = 0.5;
      cfg.async.max_staleness = 2;
      cfg.async.timeline.update_bits = 1'000'000;
      cfg.async.timeline.fhdnn = false;
      cfg.async.timeline.compute_jitter = 0.1;
    } else {
      cfg.deadline.enabled = true;
      cfg.deadline.over_selection = 0.5;
      cfg.deadline.deadline_factor = 3.0;
      cfg.deadline.timeline.update_bits = 1'000'000;
      cfg.deadline.timeline.fhdnn = false;
      cfg.deadline.timeline.compute_jitter = 0.1;
    }
    cfg.checkpoint = std::move(ck);
    cfg.crash = crash;
    return std::make_unique<fl::FedAvgTrainer>(factory, data->train,
                                               data->parts, data->test, cfg,
                                               data->uplink.get());
  };
  return fx;
}

std::shared_ptr<FedAvgFixtureData> make_fedavg_data() {
  auto data = std::make_shared<FedAvgFixtureData>();
  Rng rng(71);
  auto full = data::synthetic_mnist(120, rng);
  auto split = data::train_test_split(full, 0.25, rng);
  data->parts = data::partition_iid(split.train, 4, rng);
  data->train = std::move(split.train);
  data->test = std::move(split.test);
  data->uplink = channel::make_bit_error(1e-4);
  return data;
}

/// FedHd on isolet-like data with a corrupting uplink.
struct FedHdFixtureData {
  std::vector<fl::HdClientData> clients;
  fl::HdClientData test;
};

Fixture<fl::FedHdTrainer> fedhd_fixture(std::shared_ptr<FedHdFixtureData> data,
                                        bool async) {
  Fixture<fl::FedHdTrainer> fx;
  fx.make = [data, async](fl::CheckpointConfig ck, fl::CrashPlan crash) {
    fl::FedHdConfig cfg;
    cfg.n_clients = 6;
    cfg.client_fraction = 0.5;
    cfg.local_epochs = 1;
    cfg.rounds = 2;
    cfg.num_classes = 4;
    cfg.hd_dim = 256;
    cfg.seed = 78;
    cfg.dropout_prob = 0.2;
    cfg.uplink.mode = channel::HdUplinkMode::BitErrors;
    cfg.uplink.ber = 1e-4;
    cfg.faults.crash_prob = 0.1;
    cfg.faults.error_multiplier_max = 2.0;
    if (async) {
      cfg.async.enabled = true;
      cfg.async.over_selection = 0.5;
      cfg.async.staleness_exponent = 0.5;
      cfg.async.max_staleness = 2;
      cfg.async.timeline.update_bits = 256;
      cfg.async.timeline.fhdnn = true;
      cfg.async.timeline.compute_jitter = 0.1;
    } else {
      cfg.deadline.enabled = true;
      cfg.deadline.over_selection = 0.5;
      cfg.deadline.deadline_factor = 3.0;
      cfg.deadline.timeline.update_bits = 256;
      cfg.deadline.timeline.fhdnn = true;
      cfg.deadline.timeline.compute_jitter = 0.1;
    }
    cfg.checkpoint = std::move(ck);
    cfg.crash = crash;
    return std::make_unique<fl::FedHdTrainer>(data->clients, data->test, cfg);
  };
  return fx;
}

std::shared_ptr<FedHdFixtureData> make_fedhd_data() {
  auto data = std::make_shared<FedHdFixtureData>();
  Rng rng(72);
  data::IsoletSpec spec;
  spec.dims = 16;
  spec.classes = 4;
  spec.n = 120;
  spec.separation = 0.5;
  const auto ds = data::make_isolet_like(spec, rng);
  Rng enc_rng = rng.fork("enc");
  hdc::RandomProjectionEncoder enc(16, 256, enc_rng);
  const auto split = data::train_test_split(ds, 0.25, rng);
  data->test = {enc.encode(split.test.x), split.test.labels};
  const auto parts = data::partition_iid(split.train, 6, rng);
  for (const auto& part : parts) {
    const auto sub = split.train.subset(part);
    data->clients.push_back({enc.encode(sub.x), sub.labels});
  }
  return data;
}

// ------------------------------------------------------- the full sweeps

TEST(KillResume, FedAvgDeadlineEveryBoundary) {
  ThreadGuard guard;
  auto data = make_fedavg_data();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    kill_resume_sweep(fedavg_fixture(data, false), "fedavg_deadline");
  }
}

TEST(KillResume, FedAvgAsyncEveryBoundary) {
  ThreadGuard guard;
  auto data = make_fedavg_data();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    kill_resume_sweep(fedavg_fixture(data, true), "fedavg_async");
  }
}

TEST(KillResume, FedHdDeadlineEveryBoundary) {
  ThreadGuard guard;
  auto data = make_fedhd_data();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    kill_resume_sweep(fedhd_fixture(data, false), "fedhd_deadline");
  }
}

TEST(KillResume, FedHdAsyncEveryBoundary) {
  ThreadGuard guard;
  auto data = make_fedhd_data();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::set_num_threads(threads);
    kill_resume_sweep(fedhd_fixture(data, true), "fedhd_async");
  }
}

// ------------------------------------------------ protocol-level checks

TEST(KillResume, BoundaryCheckpointResumesAcrossRounds) {
  // Checkpoint only at round boundaries (every_n_events = 0): kill the
  // aggregator in the middle of round 2, resume from the round-1 boundary
  // snapshot (which is what survives), and finish identically.
  auto data = make_fedhd_data();
  const auto fx = fedhd_fixture(data, false);
  const std::string path = tmp_path("boundary.snap");
  remove_generations(path);

  auto golden_trainer = fx.make({}, {});
  const auto golden = golden_trainer->run();

  std::uint64_t round1_events = 0;
  {
    auto probe = fx.make({}, {});
    (void)probe->round(1);
    round1_events = probe->engine().total_events();
  }
  auto victim = fx.make({path, 0}, {true, round1_events + 1});
  bool crashed = false;
  try {
    victim->run();
  } catch (const fl::AggregatorCrash&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  auto survivor = fx.make({}, {});
  survivor->resume(path);  // the round-1 boundary checkpoint
  const auto resumed = survivor->run();
  expect_same_history(golden, resumed);
}

TEST(KillResume, SnapshotRestoreSnapshotIsByteIdentical) {
  auto data = make_fedhd_data();
  const auto fx = fedhd_fixture(data, false);
  const std::string path = tmp_path("property.snap");
  const std::string again = tmp_path("property_again.snap");
  remove_generations(path);
  remove_generations(again);

  auto victim = fx.make({path, 1}, {true, 5});
  try {
    victim->run();
  } catch (const fl::AggregatorCrash&) {
  }

  auto survivor = fx.make({}, {});
  survivor->resume(path);
  survivor->checkpoint(again);
  EXPECT_EQ(slurp(path), slurp(again));
}

TEST(KillResume, CorruptPrimaryFallsBackToPreviousGeneration) {
  auto data = make_fedhd_data();
  const auto fx = fedhd_fixture(data, false);
  const std::string path = tmp_path("fallback.snap");
  remove_generations(path);

  auto golden_trainer = fx.make({}, {});
  const auto golden = golden_trainer->run();

  // Checkpoint after every event, kill at event 6: primary holds event 6,
  // .prev holds event 5. Corrupt the primary; resume must fall back and
  // still reach the identical final history (event 5 replays event 6).
  auto victim = fx.make({path, 1}, {true, 6});
  try {
    victim->run();
  } catch (const fl::AggregatorCrash&) {
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    f.put('\xFF');
  }
  auto survivor = fx.make({}, {});
  survivor->resume(path);
  const auto resumed = survivor->run();
  expect_same_history(golden, resumed);

  // Both generations corrupt: typed DecodeError, nothing silently wrong.
  {
    std::fstream f(path + ".prev",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    f.put('\xFF');
  }
  auto doomed = fx.make({}, {});
  EXPECT_THROW(doomed->resume(path), util::DecodeError);
}

TEST(KillResume, ResumeRejectsMismatchedConfig) {
  auto data = make_fedhd_data();
  const std::string path = tmp_path("fingerprint.snap");
  remove_generations(path);
  {
    const auto fx = fedhd_fixture(data, false);
    auto t = fx.make({}, {});
    (void)t->round(1);
    t->checkpoint(path);
  }
  // Async-mode fixture has a different config fingerprint.
  const auto other = fedhd_fixture(data, true);
  auto t = other.make({}, {});
  try {
    t->resume(path);
    FAIL() << "mismatched config accepted";
  } catch (const util::DecodeError& e) {
    EXPECT_EQ(e.kind(), util::DecodeErrorKind::kSchema);
  }
}

TEST(KillResume, ConfigFingerprintValuesArePinned) {
  // A fingerprint keys every snapshot and every worker handshake, so a
  // change to its bytes orphans existing checkpoints. These values were
  // computed before the buffer moved to util::ByteWriter.
  auto data = make_fedhd_data();
  EXPECT_EQ(fedhd_fixture(data, false).make({}, {})->config_fingerprint(),
            4275913573U);
  EXPECT_EQ(fedhd_fixture(data, true).make({}, {})->config_fingerprint(),
            978708951U);
}

TEST(KillResume, ResumeRejectsAnRngCachedNormalFlagAboveOne) {
  // The RNGS chunk carries has_cached_normal as a u8 that must be 0 or 1,
  // exactly as the wire's RoundAssign does. Rewrite a valid checkpoint's
  // flag to 2 (and the chunk CRC to match) and resume must refuse it.
  auto data = make_fedhd_data();
  const auto fx = fedhd_fixture(data, false);
  const std::string path = tmp_path("rng_flag.snap");
  remove_generations(path);
  {
    auto t = fx.make({}, {});
    (void)t->round(1);
    t->checkpoint(path);
  }
  std::vector<unsigned char> image = slurp(path);
  // Header: 8-byte magic + u32 version; each chunk: 4-byte tag, u64
  // length, u32 CRC, payload. RNGS holds four u64 words, the flag, a f64.
  std::size_t at = 12;
  while (at + 16 <= image.size() &&
         std::string(image.begin() + static_cast<std::ptrdiff_t>(at),
                     image.begin() + static_cast<std::ptrdiff_t>(at + 4)) !=
             "RNGS") {
    std::uint64_t len = 0;
    std::memcpy(&len, image.data() + at + 4, sizeof(len));
    at += 16 + static_cast<std::size_t>(len);
  }
  ASSERT_LE(at + 16 + 41, image.size()) << "no RNGS chunk";
  unsigned char* payload = image.data() + at + 16;
  ASSERT_LE(payload[32], 1);
  payload[32] = 2;
  const std::uint32_t crc = util::crc32(payload, 41);
  std::memcpy(image.data() + at + 12, &crc, sizeof(crc));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(image.size()));
  }
  auto t = fx.make({}, {});
  try {
    t->resume(path);
    FAIL() << "cached-normal flag 2 accepted";
  } catch (const util::DecodeError& e) {
    EXPECT_EQ(e.kind(), util::DecodeErrorKind::kSchema);
  }
}

// ------------------------------------------------- fleet-scale snapshots

/// Tensor-update seams for a sparse fleet: each client's update is a pure
/// function of its rng fork, so the learner keeps no per-client state, and
/// the aggregator's committed mean is the model the PROT chunk carries.
constexpr std::int64_t kFleetDim = 500;

class FleetMean final : public fl::Aggregator<Tensor> {
 public:
  FleetMean() : model_(Shape{kFleetDim}) {}

  void begin_round() override {
    sum_ = Tensor(Shape{kFleetDim});
  }
  void accumulate(std::size_t client, Tensor&& update) override {
    accumulate_weighted(client, std::move(update), 1.0);
  }
  void accumulate_weighted(std::size_t /*client*/, Tensor&& update,
                           double weight) override {
    sum_.axpy(static_cast<float>(weight), update);
  }
  void commit(std::size_t delivered) override {
    commit_weighted(delivered, static_cast<double>(delivered));
  }
  void commit_weighted(std::size_t /*n_updates*/,
                       double total_weight) override {
    model_ = sum_;
    model_.scale(1.0F / static_cast<float>(total_weight));
  }
  void save_state(util::SnapshotWriter& w) override {
    fl::UpdateSnapshotCodec<Tensor>::save(w, model_);
  }
  void load_state(util::SnapshotReader& r) override {
    model_ = fl::UpdateSnapshotCodec<Tensor>::load(r);
  }

 private:
  Tensor sum_;
  Tensor model_;
};

class FleetLearner final : public fl::LocalLearner<Tensor> {
 public:
  TrainResult train(std::size_t client, Rng& client_rng) override {
    TrainResult r;
    r.update = Tensor(Shape{kFleetDim});
    auto out = r.update.data();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double anchor = ((client + i) % 7 < 3) ? 1.0 : -1.0;
      out[i] = static_cast<float>(anchor + client_rng.uniform(-0.25, 0.25));
    }
    r.loss = 0.5;
    return r;
  }
  double evaluate() override { return 0.0; }
};

/// One bit per dimension on the air; the payload passes unchanged.
class FleetUplink final : public channel::Transport<Tensor> {
 public:
  channel::TransportStats transmit(Tensor& /*update*/, std::size_t /*client*/,
                                   Rng& /*client_rng*/,
                                   const Rng& /*round_rng*/) const override {
    channel::TransportStats s;
    s.payload_scalars = static_cast<std::uint64_t>(kFleetDim);
    s.payload_bytes = update_bytes(s.payload_scalars);
    s.bits_on_air = s.payload_scalars;
    return s;
  }
  std::uint64_t update_bytes(std::uint64_t scalars) const override {
    return (scalars + 7) / 8;
  }
  std::string name() const override { return "binary-hd"; }
};

/// Round-1 boundary snapshot of a deadline-mode sparse fleet of
/// `registered` clients sampling `sampled` per round.
std::vector<unsigned char> fleet_boundary_snapshot(std::size_t registered,
                                                   std::size_t sampled) {
  fl::EngineConfig cfg;
  cfg.client_fraction =
      static_cast<double>(sampled) / static_cast<double>(registered);
  cfg.rounds = 1;
  cfg.seed = 23;
  cfg.name = "recovery";
  cfg.population.n_registered = registered;
  cfg.population.mean_availability = 0.8;
  cfg.population.straggler_fraction = 0.1;
  cfg.population.straggler_slowdown = 4.0;
  cfg.population.compute_spread = 0.5;
  cfg.population.link_spread_max = 2.0;
  cfg.deadline.enabled = true;
  cfg.deadline.timeline.update_bits = static_cast<std::uint64_t>(kFleetDim);
  cfg.deadline.timeline.fhdnn = true;
  cfg.deadline.timeline.compute_jitter = 0.1;
  cfg.deadline.deadline_factor = 4.0;

  FleetLearner learner;
  FleetUplink uplink;
  FleetMean aggregator;
  fl::ProtocolAdapter<Tensor> adapter(learner, uplink, aggregator);
  fl::RoundEngine engine(cfg, adapter);
  const auto history = engine.run();
  EXPECT_GT(history.rounds().front().clients, 0U);
  const std::string path =
      tmp_path("fleet_" + std::to_string(registered) + ".snap");
  remove_generations(path);
  engine.checkpoint(path);
  return slurp(path);
}

TEST(KillResume, BoundarySnapshotBytesDoNotGrowWithTheFleet) {
  // The sparse population and the sampler are pure functions of (seed,
  // config), covered by the META fingerprint, so a boundary snapshot holds
  // the model and the history but nothing per registered client: a
  // million-client fleet checkpoints in the same bytes as a 10k one.
  const auto small = fleet_boundary_snapshot(10'000, 1'000);
  const auto large = fleet_boundary_snapshot(1'000'000, 1'000);
  EXPECT_GT(small.size(), static_cast<std::size_t>(kFleetDim) * 4)
      << "the PROT chunk carries the model";
  EXPECT_EQ(small.size(), large.size());
}

}  // namespace
}  // namespace fhdnn
