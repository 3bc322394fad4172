// Tests for the per-client fault layer (fl/faults.hpp) and the engine's
// deadline-based rounds (fl/engine.hpp): fault determinism, the
// sampled == clients + dropped + timed_out invariant, over-selection,
// first-K/deadline acceptance, and bit-identical histories across thread
// counts with every robustness knob turned ON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "channel/arq.hpp"
#include "channel/channel.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/engine.hpp"
#include "fl/faults.hpp"
#include "fl/fedavg.hpp"
#include "fl/timeline.hpp"
#include "nn/resnet.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

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

// ------------------------------------------------------------ FaultModel

TEST(FaultModel, DisabledByDefault) {
  const fl::FaultModel model;
  EXPECT_FALSE(model.enabled());
  EXPECT_TRUE(model.available(3, 7));
  EXPECT_DOUBLE_EQ(model.slowdown(3), 1.0);
  EXPECT_DOUBLE_EQ(model.error_scale(3), 1.0);
  EXPECT_TRUE(model.error_scales().empty());

  fl::FaultConfig off;
  EXPECT_FALSE(off.any());
  const fl::FaultModel built(off, 8, Rng(1));
  EXPECT_FALSE(built.enabled());
  EXPECT_TRUE(built.available(0, 1));
}

TEST(FaultModel, RejectsInvalidConfig) {
  const Rng root(1);
  fl::FaultConfig bad;
  bad.crash_prob = 1.0;
  EXPECT_THROW(fl::FaultModel(bad, 4, root), Error);
  bad = {};
  bad.straggler_slowdown = 0.5;
  bad.straggler_fraction = 0.5;
  EXPECT_THROW(fl::FaultModel(bad, 4, root), Error);
  bad = {};
  bad.outage_rounds = 0;
  bad.outage_prob = 0.1;
  EXPECT_THROW(fl::FaultModel(bad, 4, root), Error);
  bad = {};
  bad.error_multiplier_max = 0.5;
  EXPECT_THROW(fl::FaultModel(bad, 4, root), Error);
}

TEST(FaultModel, DeterministicInSeedClientAndRound) {
  fl::FaultConfig cfg;
  cfg.crash_prob = 0.3;
  cfg.straggler_fraction = 0.5;
  cfg.straggler_slowdown = 4.0;
  cfg.outage_prob = 0.2;
  cfg.error_multiplier_max = 10.0;
  const fl::FaultModel a(cfg, 16, Rng(42));
  const fl::FaultModel b(cfg, 16, Rng(42));
  EXPECT_EQ(a.error_scales(), b.error_scales());
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_DOUBLE_EQ(a.slowdown(c), b.slowdown(c));
    for (int r = 1; r <= 10; ++r) {
      EXPECT_EQ(a.crashed(c, r), b.crashed(c, r)) << "c=" << c << " r=" << r;
      EXPECT_EQ(a.in_outage(c, r), b.in_outage(c, r));
      // Pure functions: asking twice gives the same answer.
      EXPECT_EQ(a.crashed(c, r), a.crashed(c, r));
      EXPECT_EQ(a.available(c, r), !a.crashed(c, r) && !a.in_outage(c, r));
    }
  }
}

TEST(FaultModel, StaticTraitsRespectTheConfiguredRanges) {
  fl::FaultConfig cfg;
  cfg.straggler_fraction = 0.5;
  cfg.straggler_slowdown = 8.0;
  cfg.error_multiplier_max = 5.0;
  const fl::FaultModel model(cfg, 64, Rng(7));
  ASSERT_EQ(model.error_scales().size(), 64U);
  bool saw_straggler = false;
  bool saw_healthy = false;
  bool saw_scaled = false;
  for (std::size_t c = 0; c < 64; ++c) {
    const double s = model.slowdown(c);
    EXPECT_TRUE(s == 1.0 || s == 8.0);
    saw_straggler = saw_straggler || s == 8.0;
    saw_healthy = saw_healthy || s == 1.0;
    const double e = model.error_scale(c);
    EXPECT_GE(e, 1.0);
    EXPECT_LE(e, 5.0);
    saw_scaled = saw_scaled || e > 1.0;
  }
  EXPECT_TRUE(saw_straggler);  // fraction 0.5 over 64 clients
  EXPECT_TRUE(saw_healthy);
  EXPECT_TRUE(saw_scaled);
}

TEST(FaultModel, OutageWindowsPersistForConfiguredRounds) {
  fl::FaultConfig cfg;
  cfg.outage_prob = 0.15;
  cfg.outage_rounds = 3;
  const fl::FaultModel model(cfg, 8, Rng(9));
  bool saw_outage = false;
  for (std::size_t c = 0; c < 8; ++c) {
    for (int r = 1; r <= 40; ++r) {
      // A round that *starts* an outage (not in one at r, in one at r+1)
      // keeps the client out for the full window length.
      if (!model.in_outage(c, r) && model.in_outage(c, r + 1)) {
        saw_outage = true;
        EXPECT_TRUE(model.in_outage(c, r + 2));
        EXPECT_TRUE(model.in_outage(c, r + 3));
      }
    }
  }
  EXPECT_TRUE(saw_outage);
}

// ----------------------------------------------- engine + faults (mock)

/// Minimal protocol whose transport stats scale with the client id, so
/// deadline acceptance sees heterogeneous delivery times.
class MockProtocol final : public fl::RoundProtocol {
 public:
  void begin_round(const Rng& /*round_rng*/, std::size_t n) override {
    last_slots = n;
  }

  fl::ClientReport run_client(std::size_t /*slot*/, std::size_t client,
                              const Rng& /*round_rng*/,
                              bool delivered) override {
    fl::ClientReport r;
    r.loss = 1.0;
    if (delivered) {
      r.stats.payload_bytes = 100;
      r.stats.bits_on_air = 800 * (client + 1);
      r.stats.retransmissions = client;
      r.stats.residual_errors = client % 2;
      r.stats.backoff_seconds = 0.001 * static_cast<double>(client);
    }
    return r;
  }

  void reduce(const std::vector<std::size_t>& participants,
              const std::vector<char>& delivered) override {
    last_participants = participants;
    last_delivered = delivered;
  }

  double evaluate() override { return 0.5; }

  std::size_t last_slots = 0;
  std::vector<std::size_t> last_participants;
  std::vector<char> last_delivered;
};

fl::TimelineConfig small_timeline() {
  fl::TimelineConfig t;
  t.update_bits = 1'000'000;
  t.fhdnn = false;
  t.compute_jitter = 0.1;
  return t;
}

TEST(EngineFaults, CrashesAndOutagesFoldIntoDropped) {
  MockProtocol protocol;
  fl::EngineConfig cfg;
  cfg.n_clients = 10;
  cfg.client_fraction = 1.0;
  cfg.rounds = 10;
  cfg.seed = 3;
  cfg.faults.crash_prob = 0.3;
  cfg.faults.outage_prob = 0.1;
  fl::RoundEngine engine(cfg, protocol);
  EXPECT_TRUE(engine.faults().enabled());
  const auto h = engine.run();
  std::size_t dropped = 0;
  for (const auto& m : h.rounds()) dropped += m.dropped;
  EXPECT_GT(dropped, 0U);
  EXPECT_EQ(h.total_timed_out(), 0U);  // no deadline configured
  for (const auto& m : h.rounds()) {
    EXPECT_EQ(m.clients + m.dropped + m.timed_out, m.sampled);
    EXPECT_DOUBLE_EQ(m.simulated_round_seconds, 0.0);
  }
}

TEST(EngineDeadline, OverSelectsAndAcceptsFirstK) {
  MockProtocol protocol;
  fl::EngineConfig cfg;
  cfg.n_clients = 20;
  cfg.client_fraction = 0.4;  // K = 8
  cfg.rounds = 3;
  cfg.seed = 5;
  cfg.deadline.enabled = true;
  cfg.deadline.timeline = small_timeline();
  cfg.deadline.over_selection = 0.5;   // draw ceil(8 * 1.5) = 12
  cfg.deadline.deadline_factor = 50.0; // generous: nobody misses the cutoff
  fl::RoundEngine engine(cfg, protocol);
  EXPECT_GT(engine.deadline_seconds(), 0.0);
  const auto h = engine.run();
  for (const auto& m : h.rounds()) {
    EXPECT_EQ(m.sampled, 12U);
    EXPECT_EQ(m.clients, 8U);  // exactly K accepted
    EXPECT_EQ(m.dropped, 0U);
    EXPECT_EQ(m.timed_out, 4U);  // the over-selection surplus is discarded
    EXPECT_GT(m.simulated_round_seconds, 0.0);
    EXPECT_LE(m.simulated_round_seconds, engine.deadline_seconds());
    // ARQ counters flow from transport stats into the round metrics.
    EXPECT_GT(m.retransmissions, 0U);
  }
  // Only accepted slots reach the aggregator.
  std::size_t accepted = 0;
  for (const char f : protocol.last_delivered) accepted += (f != 0) ? 1U : 0U;
  EXPECT_EQ(accepted, 8U);
}

TEST(EngineDeadline, TightDeadlineTimesOutStragglers) {
  MockProtocol protocol;
  fl::EngineConfig cfg;
  cfg.n_clients = 16;
  cfg.client_fraction = 0.5;  // K = 8
  cfg.rounds = 5;
  cfg.seed = 11;
  cfg.faults.straggler_fraction = 0.5;
  cfg.faults.straggler_slowdown = 100.0;  // way past any sane deadline
  cfg.deadline.enabled = true;
  cfg.deadline.timeline = small_timeline();
  cfg.deadline.over_selection = 0.0;
  cfg.deadline.deadline_factor = 3.0;
  fl::RoundEngine engine(cfg, protocol);
  const auto h = engine.run();
  EXPECT_GT(h.total_timed_out(), 0U);
  for (const auto& m : h.rounds()) {
    EXPECT_EQ(m.clients + m.dropped + m.timed_out, m.sampled);
    if (m.timed_out > 0) {
      // A short round waits out the full deadline.
      EXPECT_DOUBLE_EQ(m.simulated_round_seconds, engine.deadline_seconds());
    }
  }
  // Traffic is still charged for timed-out deliveries.
  EXPECT_GT(h.total_bits_on_air(), 0U);
}

TEST(EngineDeadline, RejectsInvalidConfig) {
  MockProtocol protocol;
  fl::EngineConfig cfg;
  cfg.n_clients = 4;
  cfg.client_fraction = 0.5;
  cfg.rounds = 1;
  cfg.deadline.enabled = true;
  cfg.deadline.timeline = small_timeline();
  cfg.deadline.over_selection = -0.1;
  EXPECT_THROW(fl::RoundEngine(cfg, protocol), Error);
  cfg.deadline.over_selection = 0.25;
  cfg.deadline.deadline_factor = 0.0;
  EXPECT_THROW(fl::RoundEngine(cfg, protocol), Error);
  cfg.deadline.deadline_factor = 1.5;
  cfg.deadline.timeline.update_bits = 0;  // FlTimeline requires a payload
  EXPECT_THROW(fl::RoundEngine(cfg, protocol), Error);
  cfg.deadline.timeline.update_bits = 1'000'000;
  cfg.deadline.timeline.link.snr_db = -30.0;  // rates exceed capacity
  EXPECT_THROW(fl::RoundEngine(cfg, protocol), Error);
}

// ------------------------------------------- FlTimeline deadline helpers

TEST(FlTimeline, ClientRoundSecondsChargesMeasuredDelivery) {
  const fl::FlTimeline timeline(small_timeline());
  channel::TransportStats stats;
  // No traffic, healthy client, no jitter: pure base compute.
  const double base = timeline.client_round_seconds(stats, 1.0, 1.0);
  EXPECT_GT(base, 0.0);
  // Slowdown and jitter multiply compute.
  EXPECT_DOUBLE_EQ(timeline.client_round_seconds(stats, 2.0, 1.0), 2.0 * base);
  EXPECT_DOUBLE_EQ(timeline.client_round_seconds(stats, 1.0, 1.5), 1.5 * base);
  // Bits on the air add the coded-link upload; backoff adds directly.
  stats.bits_on_air = 1'600'000;  // exactly 1 s at the coded rate
  EXPECT_DOUBLE_EQ(timeline.client_round_seconds(stats, 1.0, 1.0), base + 1.0);
  stats.backoff_seconds = 0.25;
  EXPECT_DOUBLE_EQ(timeline.client_round_seconds(stats, 1.0, 1.0),
                   base + 1.25);
  EXPECT_THROW(timeline.client_round_seconds(stats, 0.5, 1.0), Error);
  EXPECT_THROW(timeline.client_round_seconds(stats, 1.0, 0.0), Error);
}

TEST(FlTimeline, NominalRoundSecondsIsComputePlusConfiguredUpload) {
  auto cfg = small_timeline();
  const fl::FlTimeline timeline(cfg);
  channel::TransportStats nominal;
  nominal.bits_on_air = cfg.update_bits;
  EXPECT_DOUBLE_EQ(timeline.nominal_round_seconds(),
                   timeline.client_round_seconds(nominal, 1.0, 1.0));
}

// --------------------------- knobs-ON determinism across thread counts

/// FedAvg with *every* robustness knob on: ARQ uplink, crashes, stragglers,
/// outages, per-client link multipliers, deadline rounds with
/// over-selection. Histories must be bit-identical at any thread count.
fl::TrainingHistory run_full_robustness_fedavg() {
  Rng rng(51);
  auto full = data::synthetic_mnist(240, rng);
  auto split = data::train_test_split(full, 0.2, rng);
  auto parts = data::partition_iid(split.train, 6, rng);
  fl::ModelFactory factory = [](Rng& r) { return nn::make_cnn2(1, 28, 10, r); };

  fl::FedAvgConfig cfg;
  cfg.n_clients = 6;
  cfg.client_fraction = 0.5;
  cfg.local_epochs = 1;
  cfg.batch_size = 16;
  cfg.rounds = 3;
  cfg.seed = 52;
  cfg.dropout_prob = 0.2;
  cfg.faults.crash_prob = 0.1;
  cfg.faults.straggler_fraction = 0.3;
  cfg.faults.straggler_slowdown = 3.0;
  cfg.faults.outage_prob = 0.05;
  cfg.faults.error_multiplier_max = 4.0;
  cfg.deadline.enabled = true;
  cfg.deadline.over_selection = 0.5;
  cfg.deadline.deadline_factor = 3.0;
  cfg.deadline.timeline.fhdnn = false;
  cfg.deadline.timeline.update_bits = 1'000'000;

  const auto inner = channel::make_bit_error(1e-4);
  channel::ArqConfig arq;
  arq.max_retries = 4;
  const auto reliable = channel::make_reliable(inner.get(), arq);
  fl::FedAvgTrainer trainer(factory, split.train, parts, split.test, cfg,
                            reliable.get());
  return trainer.run();
}

TEST(EngineDeadline, FullRobustnessHistoryIsThreadCountInvariant) {
  ThreadGuard guard;
  parallel::set_num_threads(1);
  const auto serial = run_full_robustness_fedavg();
  parallel::set_num_threads(4);
  const auto parallel_hist = run_full_robustness_fedavg();

  ASSERT_EQ(serial.size(), parallel_hist.size());
  bool saw_arq_traffic = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial.rounds()[i];
    const auto& b = parallel_hist.rounds()[i];
    SCOPED_TRACE("round " + std::to_string(i + 1));
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);  // exact doubles
    EXPECT_EQ(a.train_loss, b.train_loss);
    EXPECT_EQ(a.clients, b.clients);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.bytes_uplink, b.bytes_uplink);
    EXPECT_EQ(a.bits_on_air, b.bits_on_air);
    EXPECT_EQ(a.bit_flips, b.bit_flips);
    EXPECT_EQ(a.packets_lost, b.packets_lost);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.residual_errors, b.residual_errors);
    EXPECT_EQ(a.simulated_round_seconds, b.simulated_round_seconds);
    EXPECT_EQ(a.clients + a.dropped + a.timed_out, a.sampled);
    saw_arq_traffic = saw_arq_traffic || a.bits_on_air > 0;
  }
  EXPECT_TRUE(saw_arq_traffic);
}

}  // namespace
}  // namespace fhdnn
