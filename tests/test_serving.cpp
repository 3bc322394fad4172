// Loopback integration tests for the fhdnnd serving seam (fl/serving.hpp):
// a ServerRoundDriver driving a WorkerLoop over an in-process loopback pipe
// must reproduce the in-process golden histories BIT-FOR-BIT — every
// double, every byte counter — at 1 and 4 threads, for both trainers.
// Plus: checkpoint/restart mid-run with a fresh worker, wire-level
// accounting equality, rejection of protocol violations, and what the
// protocol state image (the PROT chunk every round's state blob carries)
// holds.
//
// This test runs under TSan in CI (the `serving` job): the worker thread
// and the server thread pump opposite ends of the same pipe concurrently.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>  // fhdnn-lint: allow(raw-thread) — test harness hosts the worker thread
#include <utility>
#include <vector>

#include "fl/fedhd.hpp"
#include "fl/serving.hpp"
#include "net/connection.hpp"
#include "net/loopback.hpp"
#include "util/bytes.hpp"
#include "util/parallel.hpp"
#include "util/snapshot.hpp"
#include "wire/messages.hpp"
#include "workload.hpp"

namespace fhdnn {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(parallel::num_threads()) {}
  ~ThreadGuard() { parallel::set_num_threads(saved_); }

 private:
  int saved_;
};

/// Everything outside the determinism contract is wall_seconds; compare
/// the rest exactly.
void expect_same_history(const fl::TrainingHistory& a,
                         const fl::TrainingHistory& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i + 1));
    const auto& x = a.rounds()[i];
    const auto& y = b.rounds()[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.test_accuracy, y.test_accuracy);
    EXPECT_EQ(x.train_loss, y.train_loss);
    EXPECT_EQ(x.clients, y.clients);
    EXPECT_EQ(x.sampled, y.sampled);
    EXPECT_EQ(x.dropped, y.dropped);
    EXPECT_EQ(x.bytes_uplink, y.bytes_uplink);
    EXPECT_EQ(x.bits_on_air, y.bits_on_air);
    EXPECT_EQ(x.bit_flips, y.bit_flips);
    EXPECT_EQ(x.packets_lost, y.packets_lost);
    EXPECT_EQ(x.retransmissions, y.retransmissions);
    EXPECT_EQ(x.residual_errors, y.residual_errors);
  }
}

/// One loopback worker serving a dedicated trainer replica on its own
/// thread; join() after the driver shuts down (or the pipe closes).
class LoopbackWorker {
 public:
  LoopbackWorker(const std::string& proto,
                 std::unique_ptr<net::Connection> end)
      : wl_(workload::make_workload({proto, 3, "", 0, false, 0})),
        conn_(std::move(end)),
        thread_([this, proto] {
          fl::WorkerLoop loop(*conn_, wl_->protocol(),
                              wl_->config_fingerprint(), proto);
          loop.handshake();
          (void)loop.serve();
        }) {}

  ~LoopbackWorker() {
    if (thread_.joinable()) thread_.join();
  }

  void join() { thread_.join(); }

 private:
  std::unique_ptr<workload::Workload> wl_;
  std::unique_ptr<net::Connection> conn_;
  std::thread thread_;  // fhdnn-lint: allow(raw-thread)
};

fl::TrainingHistory run_served(const std::string& proto, int threads) {
  parallel::set_num_threads(threads);
  workload::Options opt;
  opt.protocol = proto;
  auto server = workload::make_workload(opt);
  auto [worker_end, server_end] = net::make_loopback_pair();
  fl::ServerRoundDriver driver(server->config_fingerprint(), proto);
  LoopbackWorker worker(proto, std::move(worker_end));
  driver.add_worker(std::move(server_end));
  server->set_round_driver(&driver);
  const auto history = server->run();
  driver.shutdown(static_cast<std::int64_t>(history.rounds().size()));
  worker.join();
  EXPECT_GT(driver.wire_bytes_sent(), 0U);
  EXPECT_GT(driver.wire_bytes_received(), 0U);
  return history;
}

fl::TrainingHistory run_in_process(const std::string& proto, int threads) {
  parallel::set_num_threads(threads);
  workload::Options opt;
  opt.protocol = proto;
  return workload::make_workload(opt)->run();
}

// --------------------------------------------------- golden bit-identity

TEST(Serving, FedHdLoopbackMatchesInProcessAtEveryThreadCount) {
  ThreadGuard guard;
  const auto golden = run_in_process("fedhd", 1);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_history(golden, run_served("fedhd", threads));
  }
}

TEST(Serving, FedAvgLoopbackMatchesInProcessAtEveryThreadCount) {
  ThreadGuard guard;
  const auto golden = run_in_process("fedavg", 1);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_history(golden, run_served("fedavg", threads));
  }
}

// ----------------------------------------- accounting over the wire

TEST(Serving, WallSecondsAndTrafficAccountedOnServedRounds) {
  ThreadGuard guard;
  parallel::set_num_threads(1);
  const auto served = run_served("fedhd", 1);
  const auto local = run_in_process("fedhd", 1);
  ASSERT_EQ(served.size(), local.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    // The regression this pins: bytes-on-air accounting over the wire must
    // equal the in-process channel accounting EXACTLY — the worker runs
    // the same transport with the same RNG forks, and the stats travel in
    // full (all ten TransportStats fields).
    EXPECT_EQ(served.rounds()[i].bytes_uplink, local.rounds()[i].bytes_uplink);
    EXPECT_EQ(served.rounds()[i].bits_on_air, local.rounds()[i].bits_on_air);
    // wall_seconds stays engine-measured (not zero, not negative) even
    // though training happened on the worker thread.
    EXPECT_GE(served.rounds()[i].wall_seconds, 0.0);
  }
}

// --------------------------------------------------- checkpoint + restart

TEST(Serving, ServerRestartsFromCheckpointWithFreshWorker) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  const auto golden = run_in_process("fedhd", 2);
  const std::string path = testing::TempDir() + "fhdnn_serving_ck.snap";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  workload::Options opt;
  opt.protocol = "fedhd";
  opt.checkpoint_path = path;

  // First server life: a checkpointing run over a loopback worker. Boundary
  // snapshots rotate through <path> / <path>.prev, so afterwards .prev
  // holds the round-2 boundary image — exactly what survives a server
  // killed while committing the round-3 snapshot.
  {
    auto victim = workload::make_workload(opt);
    auto [worker_end, server_end] = net::make_loopback_pair();
    fl::ServerRoundDriver driver(victim->config_fingerprint(), "fedhd");
    LoopbackWorker worker("fedhd", std::move(worker_end));
    driver.add_worker(std::move(server_end));
    victim->set_round_driver(&driver);
    (void)victim->run();
    driver.shutdown(3);
  }

  // Second life: a brand-new server process-equivalent resumes from the
  // round-2 boundary snapshot with a brand-new worker replica and re-drives
  // round 3 over the wire. The finished history must match end to end.
  auto survivor = workload::make_workload(opt);
  survivor->resume(path + ".prev");
  EXPECT_EQ(survivor->history().size(), 2U);
  auto [worker_end, server_end] = net::make_loopback_pair();
  fl::ServerRoundDriver driver(survivor->config_fingerprint(), "fedhd");
  LoopbackWorker worker("fedhd", std::move(worker_end));
  driver.add_worker(std::move(server_end));
  survivor->set_round_driver(&driver);
  const auto resumed = survivor->run();
  driver.shutdown(static_cast<std::int64_t>(resumed.rounds().size()));
  worker.join();
  expect_same_history(golden, resumed);
}

// --------------------------------------------------- protocol violations

TEST(Serving, HandshakeRejectsFingerprintMismatch) {
  workload::Options opt;
  opt.protocol = "fedhd";
  auto server = workload::make_workload(opt);
  auto [worker_end, server_end] = net::make_loopback_pair();
  fl::ServerRoundDriver driver(server->config_fingerprint(), "fedhd");

  std::thread bad([&worker_end] {  // fhdnn-lint: allow(raw-thread)
    net::MessageChannel chan(*worker_end);
    wire::HelloMsg hello;
    hello.config_fingerprint = 0xBADBAD;  // wrong config
    hello.protocol = "fedhd";
    chan.send(hello.to_frame());
    while (!chan.flush()) {
    }
    // The server closes on us; drain until then.
    try {
      (void)chan.recv(10000);
    } catch (const Error&) {
    }
  });
  EXPECT_THROW((void)driver.add_worker(std::move(server_end)),
               net::NetError);
  bad.join();
}

TEST(Serving, DriveRejectsUpdateForWrongRound) {
  ThreadGuard guard;
  parallel::set_num_threads(1);
  workload::Options opt;
  opt.protocol = "fedhd";
  auto server = workload::make_workload(opt);
  auto [worker_end, server_end] = net::make_loopback_pair();
  const std::uint32_t fp = server->config_fingerprint();
  fl::ServerRoundDriver driver(fp, "fedhd");

  // A compliant handshake, then a lie about the round index.
  std::thread malicious([&worker_end, fp] {  // fhdnn-lint: allow(raw-thread)
    net::MessageChannel chan(*worker_end);
    wire::HelloMsg hello;
    hello.protocol = "fedhd";
    hello.config_fingerprint = fp;
    chan.send(hello.to_frame());
    while (!chan.flush()) {
    }
    try {
      const wire::Frame ack = chan.recv(10000);
      (void)wire::HelloAckMsg::from_frame(ack);
      const wire::Frame assign_frame = chan.recv(30000);
      const auto assign = wire::RoundAssignMsg::from_frame(assign_frame);
      wire::UpdateMsg bad;
      bad.round_index = assign.round_index + 1;  // wrong round
      bad.slot = assign.slots.empty() ? 0 : assign.slots[0].slot;
      bad.client = assign.slots.empty() ? 0 : assign.slots[0].client;
      bad.update_blob = {};
      chan.send(bad.to_frame());
      while (!chan.flush()) {
      }
    } catch (const Error&) {
      // Server tore the pipe down on rejection — also a pass.
    }
  });
  (void)driver.add_worker(std::move(server_end));
  server->set_round_driver(&driver);
  EXPECT_THROW((void)server->round(1), net::NetError);
  malicious.join();
}

// ------------------------------------------------------- protocol state

/// The protocol's state image: one PROT chunk, as in a checkpoint and in
/// every round's state blob.
std::vector<std::uint8_t> protocol_image(fl::RoundProtocol& protocol) {
  util::SnapshotWriter w;
  w.begin_chunk("PROT");
  protocol.save_state(w);
  w.end_chunk();
  return w.finish();
}

/// A PROT image with empty adapter buffers and a learner model of
/// `scalars` floats.
std::vector<std::uint8_t> model_image(std::size_t scalars) {
  util::SnapshotWriter w;
  w.begin_chunk("PROT");
  w.write_u64(0);  // retained updates
  w.write_u64(0);  // buffered-async backlog
  w.write_floats(std::vector<float>(scalars, 1.0F));
  w.end_chunk();
  return w.finish();
}

/// Loading a model of each size in `scalars` throws DecodeError (kSchema)
/// and leaves the protocol's state image as it was.
void expect_rejected_before_the_model_changes(
    fl::RoundProtocol& protocol, const std::vector<std::size_t>& scalars) {
  const std::vector<std::uint8_t> before = protocol_image(protocol);
  for (const std::size_t n : scalars) {
    SCOPED_TRACE(std::to_string(n) + " scalars");
    util::SnapshotReader r =
        util::SnapshotReader::from_bytes(model_image(n), "test:state");
    r.enter_chunk("PROT");
    try {
      protocol.load_state(r);
      ADD_FAILURE() << "a model of the wrong size was accepted";
    } catch (const util::DecodeError& e) {
      EXPECT_EQ(e.kind(), util::DecodeErrorKind::kSchema) << e.what();
    }
    EXPECT_EQ(protocol_image(protocol), before)
        << "a rejected image changed the model";
  }
}

TEST(ProtocolState, HoldsOnlyTheLearnersModel) {
  // Aggregators rebuild their sums in begin_round, so between rounds the
  // image holds the learner's model and the adapter's buffers only: a
  // round leaves it the size it had before round 0.
  for (const char* proto : {"fedavg", "fedhd"}) {
    SCOPED_TRACE(proto);
    auto wl = workload::make_workload({proto, 3, "", 0, false, 0});
    const std::size_t before = protocol_image(wl->protocol()).size();
    EXPECT_GT(wl->round(1).clients, 0U);
    EXPECT_EQ(protocol_image(wl->protocol()).size(), before);
  }

  // A round in which every client drops never commits the sum it began.
  Rng rng(41);
  const std::vector<std::int64_t> labels = {0, 1, 2, 3, 0, 1, 2, 3};
  std::vector<fl::HdClientData> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back({Tensor::randn(Shape{8, 512}, rng), labels});
  }
  const fl::HdClientData test{Tensor::randn(Shape{8, 512}, rng), labels};
  fl::FedHdConfig cfg;
  cfg.n_clients = 4;
  cfg.client_fraction = 0.5;
  cfg.rounds = 1;
  cfg.num_classes = 4;
  cfg.hd_dim = 512;
  cfg.dropout_prob = 0.999;
  fl::FedHdTrainer trainer(std::move(clients), test, cfg);
  const std::size_t before = protocol_image(trainer.protocol()).size();
  EXPECT_EQ(trainer.round(1).clients, 0U);
  EXPECT_EQ(protocol_image(trainer.protocol()).size(), before);
}

TEST(ProtocolState, FedHdRejectsAModelOfTheWrongSize) {
  // The learner always saves K x d prototype scalars, so an image with
  // none is as malformed as one with too few.
  auto wl = workload::make_workload({"fedhd", 3, "", 0, false, 0});
  (void)wl->round(1);
  expect_rejected_before_the_model_changes(wl->protocol(), {0, 5});
}

TEST(ProtocolState, FedAvgRejectsAModelOfTheWrongSize) {
  auto wl = workload::make_workload({"fedavg", 3, "", 0, false, 0});
  (void)wl->round(1);
  expect_rejected_before_the_model_changes(wl->protocol(), {0, 5});
}

}  // namespace
}  // namespace fhdnn
