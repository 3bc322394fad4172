#include "workload.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "hdc/encoder.hpp"
#include "nn/resnet.hpp"
#include "util/error.hpp"

namespace fhdnn::workload {

namespace {

void apply_common(const Options& opt, fl::CheckpointConfig& checkpoint,
                  fl::CrashPlan& crash) {
  checkpoint.path = opt.checkpoint_path;
  checkpoint.every_n_events = opt.checkpoint_every_n_events;
  crash.enabled = opt.crash_enabled;
  crash.at_event = opt.crash_at_event;
}

/// The test_engine.cpp FedAvg golden fixture: 4 clients on synthetic
/// MNIST, C=0.75, dropout 0.4, update subsampling 0.5, lossy packet
/// channel.
class FedAvgWorkload final : public Workload {
 public:
  explicit FedAvgWorkload(const Options& opt)
      : uplink_(channel::make_packet_loss(0.2, 1024)) {
    Rng rng(21);
    auto full = data::synthetic_mnist(300, rng);
    auto split = data::train_test_split(full, 0.2, rng);
    train_ = std::move(split.train);
    test_ = std::move(split.test);
    parts_ = data::partition_iid(train_, 4, rng);
    fl::ModelFactory factory = [](Rng& r) {
      return nn::make_cnn2(1, 28, 10, r);
    };
    fl::FedAvgConfig cfg;
    cfg.n_clients = 4;
    cfg.client_fraction = 0.75;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.rounds = opt.rounds;
    cfg.seed = 22;
    cfg.dropout_prob = 0.4;
    cfg.update_fraction = 0.5;
    apply_common(opt, cfg.checkpoint, cfg.crash);
    trainer_ = std::make_unique<fl::FedAvgTrainer>(factory, train_, parts_,
                                                   test_, cfg, uplink_.get());
  }

  fl::RoundProtocol& protocol() override { return trainer_->protocol(); }
  void set_round_driver(fl::RoundDriver* driver) override {
    trainer_->set_round_driver(driver);
  }
  [[nodiscard]] std::uint32_t config_fingerprint() const override {
    return trainer_->config_fingerprint();
  }
  fl::TrainingHistory run() override { return trainer_->run(); }
  fl::RoundMetrics round(int round_index) override {
    return trainer_->round(round_index);
  }
  void resume(const std::string& path) override { trainer_->resume(path); }
  [[nodiscard]] const fl::TrainingHistory& history() const override {
    return trainer_->history();
  }

 private:
  std::unique_ptr<channel::Channel> uplink_;
  data::Dataset train_;
  data::Dataset test_;
  data::ClientIndices parts_;
  std::unique_ptr<fl::FedAvgTrainer> trainer_;
};

/// The test_engine.cpp FedHd golden fixture: 6 clients on isolet-like
/// data, C=0.5, dropout 0.3, bit-error uplink, AWGN downlink.
class FedHdWorkload final : public Workload {
 public:
  explicit FedHdWorkload(const Options& opt) {
    Rng rng(31);
    data::IsoletSpec spec;
    spec.dims = 32;
    spec.classes = 4;
    spec.n = 400;
    spec.separation = 0.5;
    const auto ds = data::make_isolet_like(spec, rng);
    Rng enc_rng = rng.fork("enc");
    hdc::RandomProjectionEncoder enc(32, 512, enc_rng);
    const auto split = data::train_test_split(ds, 0.2, rng);
    test_ = {enc.encode(split.test.x), split.test.labels};
    const auto parts = data::partition_iid(split.train, 6, rng);
    for (const auto& part : parts) {
      const auto sub = split.train.subset(part);
      clients_.push_back({enc.encode(sub.x), sub.labels});
    }
    fl::FedHdConfig cfg;
    cfg.n_clients = 6;
    cfg.client_fraction = 0.5;
    cfg.local_epochs = 2;
    cfg.rounds = opt.rounds;
    cfg.num_classes = 4;
    cfg.hd_dim = 512;
    cfg.seed = 32;
    cfg.dropout_prob = 0.3;
    cfg.uplink.mode = channel::HdUplinkMode::BitErrors;
    cfg.uplink.ber = 1e-4;
    cfg.downlink.mode = channel::HdUplinkMode::Awgn;
    cfg.downlink.snr_db = 15.0;
    apply_common(opt, cfg.checkpoint, cfg.crash);
    trainer_ = std::make_unique<fl::FedHdTrainer>(clients_, test_, cfg);
  }

  fl::RoundProtocol& protocol() override { return trainer_->protocol(); }
  void set_round_driver(fl::RoundDriver* driver) override {
    trainer_->set_round_driver(driver);
  }
  [[nodiscard]] std::uint32_t config_fingerprint() const override {
    return trainer_->config_fingerprint();
  }
  fl::TrainingHistory run() override { return trainer_->run(); }
  fl::RoundMetrics round(int round_index) override {
    return trainer_->round(round_index);
  }
  void resume(const std::string& path) override { trainer_->resume(path); }
  [[nodiscard]] const fl::TrainingHistory& history() const override {
    return trainer_->history();
  }

 private:
  // The trainer borrows the encoded data, so it is declared after it.
  std::vector<fl::HdClientData> clients_;
  fl::HdClientData test_;
  std::unique_ptr<fl::FedHdTrainer> trainer_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.protocol == "fedavg") {
    return std::make_unique<FedAvgWorkload>(options);
  }
  if (options.protocol == "fedhd") {
    return std::make_unique<FedHdWorkload>(options);
  }
  throw Error("unknown workload protocol \"" + options.protocol +
              "\" (expected fedavg or fedhd)");
}

std::string format_history(const fl::TrainingHistory& history) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& m : history.rounds()) {
    out << "round=" << m.round << " acc=" << m.test_accuracy
        << " loss=" << m.train_loss << " clients=" << m.clients
        << " sampled=" << m.sampled << " dropped=" << m.dropped
        << " bytes=" << m.bytes_uplink << " bits=" << m.bits_on_air
        << " flips=" << m.bit_flips << " lost=" << m.packets_lost
        << " retx=" << m.retransmissions << " residual=" << m.residual_errors
        << "\n";
  }
  return out.str();
}

}  // namespace fhdnn::workload
