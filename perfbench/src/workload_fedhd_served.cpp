// fedhd_served: FedHd over TCP on 127.0.0.1 in one process. The server
// (ServerRoundDriver on epoll) runs on the calling thread and three
// WorkerLoop threads each serve a trainer replica over their own
// connection; the pool is one thread wide, so four threads in all.
// ISOLET-like data (26 classes, 128 features so the one-thread encoding
// keeps set-up near a second) projected to d = 10 000, so a state or an
// update is about 1 MB; 60 clients of 6 examples, E = 1, C = 0.2, an
// error-free uplink (bit errors in the AGC integers leave this small-shard
// model at chance), evaluation only in the last round, and a checkpoint
// after every round. No delivery is dropped: the server deals only
// delivered clients, so with dropouts a round's slowest worker trained 3 or
// 4 clients in a mix the seed chose, and the run's median round moved with
// the seed. This is the one workload where fl/serving, wire, net and
// util/snapshot carry a large share of the round.
#include <mutex>
#include <thread>  // fhdnn-lint: allow(raw-thread) — the benchmark hosts worker threads

#include "channel/hd_uplink.hpp"
#include "data/synthetic.hpp"
#include "fl/fedhd.hpp"
#include "fl/serving.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "net/socket.hpp"
#include "util/parallel.hpp"
#include "bench_workload.hpp"
#include "env.hpp"
#include "workload.hpp"  // tools/fhdnnd: format_history

namespace perfbench {

namespace fl = fhdnn::fl;

namespace {

constexpr int kRounds = 10;
constexpr int kWorkers = 3;
constexpr std::size_t kClients = 60;
constexpr std::int64_t kPerClient = 6;
constexpr std::int64_t kTest = 130;
constexpr std::int64_t kFeatures = 128;
constexpr std::int64_t kDim = 10'000;
constexpr const char* kProtocol = "fedhd";

fl::ServingConfig serving_config() {
  fl::ServingConfig c;
  c.handshake_timeout_ms = 30'000;
  c.round_timeout_ms = 60'000;
  return c;
}

/// A worker idles between rounds while the server runs its gate and
/// probes, so its wait for the next frame outlasts any run (run.py stops a
/// run at 170 s); a dead server still surfaces as peer_closed.
fl::ServingConfig worker_config() {
  fl::ServingConfig c = serving_config();
  c.round_timeout_ms = 180'000;
  return c;
}

class FedHdServed final : public Workload {
 public:
  ~FedHdServed() override { stop_workers(); }

  int threads() const override { return 1; }
  int campaign_rounds() const override { return kRounds; }
  double nominal_campaign_seconds() const override { return 3.3; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    stop_workers();
    trainer_.reset();
    replicas_.clear();
    traced_.reset();
    clients_.clear();

    fhdnn::Rng rng(seed);
    fhdnn::data::IsoletSpec spec;
    spec.dims = kFeatures;
    spec.n = static_cast<std::int64_t>(kClients) * kPerClient + kTest;
    const auto full = fhdnn::data::make_isolet_like(spec, rng);
    const auto split = fhdnn::data::train_test_split(
        full, static_cast<double>(kTest) / static_cast<double>(spec.n), rng);
    fhdnn::Rng enc_rng = rng.fork("encoder");
    const fhdnn::hdc::RandomProjectionEncoder encoder(spec.dims, kDim, enc_rng);
    const auto parts = fhdnn::data::partition_iid(split.train, kClients, rng);
    for (const auto& part : parts) {
      const auto sub = split.train.subset(part);
      clients_.push_back({encoder.encode(sub.x), sub.labels});
    }
    test_ = {encoder.encode(split.test.x), split.test.labels};

    config_ = fl::FedHdConfig{};
    config_.n_clients = kClients;
    config_.client_fraction = 0.2;
    config_.local_epochs = 1;
    config_.rounds = kRounds;
    config_.num_classes = spec.classes;
    config_.hd_dim = kDim;
    config_.eval_every = kRounds;
    config_.seed = seed;

    trainer_ = std::make_unique<fl::FedHdTrainer>(clients_, test_, config_);
    const std::uint32_t fp = trainer_->config_fingerprint();
    server_ = std::make_unique<fl::ServerRoundDriver>(fp, kProtocol,
                                                      serving_config());
    fhdnn::net::TcpListener listener("127.0.0.1", 0);
    const std::uint16_t port = listener.port();
    for (int i = 0; i < kWorkers; ++i) {
      replicas_.push_back(
          std::make_unique<fl::FedHdTrainer>(clients_, test_, config_));
      worker_protocols_.push_back(
          tracer ? std::make_unique<TracingProtocol>(
                       replicas_.back()->protocol(), *tracer,
                       TracingProtocol::Side::kWorker)
                 : nullptr);
      fl::RoundProtocol& protocol =
          worker_protocols_.back() ? *worker_protocols_.back()
                                   : replicas_.back()->protocol();
      const bool count = tracer != nullptr;
      workers_.emplace_back([this, &protocol, port, fp, count] {
        serve_worker(protocol, port, fp, count);
      });
    }
    for (int i = 0; i < kWorkers; ++i) {
      FHDNN_CHECK(listener.wait_pending(30'000), "worker did not connect");
      std::unique_ptr<fhdnn::net::Connection> conn = listener.accept();
      FHDNN_CHECK(conn != nullptr, "pending worker connection vanished");
      if (tracer) {
        conn = std::make_unique<CountingConnection>(std::move(conn),
                                                    server_counters_);
      }
      (void)server_->add_worker(std::move(conn));
    }
    if (tracer) {
      traced_ = std::make_unique<TracingDriver>(*server_, *tracer,
                                                TracingProtocol::Side::kServer);
    }
    tracer_ = tracer;
    attach(*trainer_);
    fresh_ = true;
  }

  void begin_campaign() override {
    if (!fresh_) {
      trainer_ = std::make_unique<fl::FedHdTrainer>(clients_, test_, config_);
      attach(*trainer_);
    }
    fresh_ = false;
  }

  fl::RoundMetrics round(int r) override { return trainer_->round(r); }

  void after_round(int r) override {
    std::unique_ptr<ScopedSpan> span;
    if (tracer_) {
      span = std::make_unique<ScopedSpan>(*tracer_, "util.snapshot.checkpoint",
                                          0, r);
    }
    trainer_->checkpoint(checkpoint_path("fedhd_served"));
  }

  double evaluate() override { return trainer_->evaluate(); }
  TracingDriver* tracing_driver() override { return traced_.get(); }
  const NetCounters* server_net() const override {
    return tracer_ ? &server_counters_ : nullptr;
  }
  const NetCounters* worker_net() const override {
    return tracer_ ? &worker_counters_ : nullptr;
  }
  std::uint64_t wire_bytes() const override {
    return server_ ? server_->wire_bytes_sent() + server_->wire_bytes_received()
                   : 0;
  }

  void gate(const std::string& first_history,
            std::vector<std::string>& failures, Tracer* tracer) override {
    // The served history must equal the in-process one, byte for byte.
    // Histories are identical at any pool width, so the reference runs on
    // every core; measurement is over by now.
    fhdnn::parallel::set_num_threads(nproc());
    fl::FedHdTrainer local(clients_, test_, config_);
    fl::TrainingHistory expected;
    for (int r = 1; r <= kRounds; ++r) expected.add(local.round(r));
    fhdnn::parallel::set_num_threads(threads());
    if (first_history != fhdnn::workload::format_history(expected)) {
      failures.push_back("served history differs from the in-process history");
    }
    // The last round's checkpoint must resume into the same state.
    fl::FedHdTrainer fresh(clients_, test_, config_);
    const std::string last = checkpoint_path("fedhd_served");
    const std::string again = checkpoint_path("fedhd_served-resumed");
    {
      std::unique_ptr<ScopedSpan> span;
      if (tracer) {
        span =
            std::make_unique<ScopedSpan>(*tracer, "util.snapshot.resume", 0, 0);
      }
      fresh.resume(last);
    }
    fresh.checkpoint(again);
    if (!same_file_bytes(last, again)) {
      failures.push_back("resume() did not reproduce the last checkpoint");
    }
    remove_checkpoint(last);
    remove_checkpoint(again);
    stop_workers();
    const std::lock_guard<std::mutex> lock(errors_mu_);
    for (const std::string& e : worker_errors_) failures.push_back(e);
  }

  void probe(LayerMetrics& out, Tracer& tracer) override {
    (void)tracer;
    probe_hd(trainer_->global(), clients_.front(), test_, config_.uplink, out);
    probe_wire(trainer_->protocol(),
               static_cast<std::size_t>(config_.client_fraction *
                                        static_cast<double>(kClients)),
               out);
    out["util.snapshot.bytes"] =
        static_cast<double>(file_size(checkpoint_path("fedhd_served")));
  }

 private:
  void attach(fl::FedHdTrainer& trainer) {
    trainer.set_round_driver(traced_ ? static_cast<fl::RoundDriver*>(traced_.get())
                                     : server_.get());
  }

  void serve_worker(fl::RoundProtocol& protocol, std::uint16_t port,
                    std::uint32_t fp, bool count) {
    try {
      std::unique_ptr<fhdnn::net::Connection> conn =
          fhdnn::net::connect_tcp("127.0.0.1", port, 30'000);
      if (count) {
        conn = std::make_unique<CountingConnection>(std::move(conn),
                                                    worker_counters_);
      }
      fl::WorkerLoop loop(*conn, protocol, fp, kProtocol, worker_config());
      loop.handshake();
      (void)loop.serve();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(errors_mu_);
      worker_errors_.push_back(std::string("worker: ") + e.what());
    }
  }

  void stop_workers() noexcept {
    if (server_) {
      try {
        server_->shutdown(kRounds);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(errors_mu_);
        worker_errors_.push_back(std::string("shutdown: ") + e.what());
      }
    }
    for (auto& t : workers_) t.join();
    workers_.clear();
    traced_.reset();
    server_.reset();
    worker_protocols_.clear();
  }

  std::vector<fl::HdClientData> clients_;
  fl::HdClientData test_;
  fl::FedHdConfig config_;
  Tracer* tracer_ = nullptr;
  NetCounters server_counters_;
  NetCounters worker_counters_;
  std::vector<std::unique_ptr<fl::FedHdTrainer>> replicas_;
  std::vector<std::unique_ptr<TracingProtocol>> worker_protocols_;
  std::unique_ptr<fl::FedHdTrainer> trainer_;
  std::unique_ptr<fl::ServerRoundDriver> server_;
  std::unique_ptr<TracingDriver> traced_;
  std::mutex errors_mu_;
  std::vector<std::string> worker_errors_;  // guarded by errors_mu_
  std::vector<std::thread> workers_;  // fhdnn-lint: allow(raw-thread)
  bool fresh_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_fedhd_served() {
  return std::make_unique<FedHdServed>();
}

}  // namespace perfbench
