// fedavg_cnn: the paper's CNN baseline on the fedhd_paper data generator
// and IID partition, with 80 examples per client: at 40, ten rounds left
// some seeds' CNN near 0.6 accuracy and final_accuracy swung with the seed;
// at 80 every seed tried reaches 1.0. Cnn2, E = 1, B = 10, C = 0.2 and no
// dropped deliveries (a dropped client skips the ARQ transmit, so dropouts
// made a round's cost follow the seed's draws). The uplink is ARQ
// (channel::make_reliable) over a BER 1e-5 bit-error link, low enough that
// no frame exhausts its retries, so accuracy stays a function of the seed
// alone. Rounds are spent in nn/tensor forward, backward and SGD, and in
// ARQ framing; hdc does no work.
#include "channel/arq.hpp"
#include "channel/channel.hpp"
#include "fl/fedavg.hpp"
#include "nn/module.hpp"
#include "nn/serialize.hpp"
#include "nn/resnet.hpp"
#include "bench_workload.hpp"
#include "env.hpp"

namespace perfbench {

namespace fl = fhdnn::fl;

namespace {

constexpr int kRounds = 10;
constexpr std::int64_t kPerClient = 80;
constexpr std::int64_t kTest = 200;

class FedAvgCnn final : public Workload {
 public:
  int threads() const override { return nproc(); }
  int campaign_rounds() const override { return kRounds; }
  double nominal_campaign_seconds() const override { return 6.5; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    trainer_.reset();
    traced_.reset();
    data_ = make_paper_data(seed, kPerClient, kTest);
    link_ = fhdnn::channel::make_bit_error(1e-5);
    uplink_ = fhdnn::channel::make_reliable(link_.get());
    config_ = fl::FedAvgConfig{};
    config_.n_clients = data_.parts.size();
    config_.client_fraction = 0.2;
    config_.local_epochs = 1;
    config_.batch_size = 10;
    config_.rounds = kRounds;
    config_.eval_every = 1;
    config_.seed = seed;
    if (tracer) {
      traced_ = std::make_unique<TracingDriver>(local_, *tracer,
                                                TracingProtocol::Side::kServer);
    }
    trainer_ = make_trainer();
    fresh_ = true;
  }

  void begin_campaign() override {
    if (!fresh_) trainer_ = make_trainer();
    fresh_ = false;
  }

  fl::RoundMetrics round(int r) override { return trainer_->round(r); }
  double evaluate() override { return trainer_->evaluate(); }
  TracingDriver* tracing_driver() override { return traced_.get(); }

  void gate(const std::string& first_history,
            std::vector<std::string>& failures, Tracer* tracer) override {
    (void)first_history;
    auto fresh = make_trainer();
    gate_resume(*trainer_, *fresh, "fedavg_cnn", failures, tracer);
  }

  void probe(LayerMetrics& out, Tracer& tracer) override {
    const std::vector<float> state = fhdnn::nn::get_state(trainer_->global_model());
    out["channel.transmit_ms"] = median_ms([&] {
      std::vector<float> payload = state;
      fhdnn::Rng rng(7);
      (void)uplink_->apply(payload, rng);
    });
    probe_cnn2_step(out);
    probe_wire(trainer_->protocol(),
               static_cast<std::size_t>(config_.client_fraction *
                                        static_cast<double>(config_.n_clients)),
               out);
    probe_checkpoint(*trainer_, "fedavg_cnn", out, tracer);
  }

 private:
  std::unique_ptr<fl::FedAvgTrainer> make_trainer() {
    fl::ModelFactory factory = [](fhdnn::Rng& rng) {
      return fhdnn::nn::make_cnn2(1, 28, 10, rng);
    };
    auto t = std::make_unique<fl::FedAvgTrainer>(
        factory, data_.train, data_.parts, data_.test, config_, uplink_.get());
    if (traced_) t->set_round_driver(traced_.get());
    return t;
  }

  PaperData data_;
  std::unique_ptr<fhdnn::channel::Channel> link_;
  std::unique_ptr<fhdnn::channel::Channel> uplink_;
  fl::FedAvgConfig config_;
  fl::LocalRoundDriver local_;
  std::unique_ptr<TracingDriver> traced_;
  std::unique_ptr<fl::FedAvgTrainer> trainer_;
  bool fresh_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_fedavg_cnn() {
  return std::make_unique<FedAvgCnn>();
}

}  // namespace perfbench
