// fedhd_paper: FHDnn in process, as in paper §4. Synthetic MNIST (10
// classes) over 50 IID clients; set-up runs the frozen extractor and the
// d = 10 000 projection once (core::encode_for_fhdnn); rounds sample
// C = 0.2, refine E = 2 epochs, drop 10% of deliveries and send the
// prototypes through the AGC quantizer over a BER 1e-3 bit-error uplink.
// Every round evaluates, so rounds are spent in hdc refinement and cosine
// evaluation; nn runs only at set-up.
#include "channel/hd_uplink.hpp"
#include "core/pipeline.hpp"
#include "fl/fedhd.hpp"
#include "hdc/classifier.hpp"
#include "bench_workload.hpp"
#include "env.hpp"

namespace perfbench {

namespace fl = fhdnn::fl;

namespace {

constexpr int kRounds = 10;
constexpr std::int64_t kPerClient = 20;
constexpr std::int64_t kTest = 200;

class FedHdPaper final : public Workload {
 public:
  int threads() const override { return nproc(); }
  int campaign_rounds() const override { return kRounds; }
  double nominal_campaign_seconds() const override { return 5.5; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    trainer_.reset();
    traced_.reset();
    enc_ = {};
    const PaperData data = make_paper_data(seed, kPerClient, kTest);
    {
      std::unique_ptr<ScopedSpan> span;
      if (tracer) {
        span = std::make_unique<ScopedSpan>(*tracer, "core.encode", 0, 0);
      }
      enc_ = fhdnn::core::encode_for_fhdnn(fhdnn::core::FhdnnConfig{},
                                           data.train, data.parts, data.test);
    }
    config_ = fl::FedHdConfig{};
    config_.n_clients = enc_.clients.size();
    config_.client_fraction = 0.2;
    config_.local_epochs = 2;
    config_.rounds = kRounds;
    config_.num_classes = enc_.num_classes;
    config_.hd_dim = enc_.hd_dim;
    config_.eval_every = 1;
    config_.dropout_prob = 0.1;
    config_.seed = seed;
    config_.uplink.mode = fhdnn::channel::HdUplinkMode::BitErrors;
    config_.uplink.ber = 1e-3;
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
    gate_resume(*trainer_, *fresh, "fedhd_paper", failures, tracer);
  }

  void probe(LayerMetrics& out, Tracer& tracer) override {
    probe_hd(trainer_->global(), enc_.clients.front(), enc_.test,
             config_.uplink, out);
    probe_cnn2_step(out);
    probe_wire(trainer_->protocol(),
               static_cast<std::size_t>(config_.client_fraction *
                                        static_cast<double>(config_.n_clients)),
               out);
    probe_checkpoint(*trainer_, "fedhd_paper", out, tracer);
  }

 private:
  std::unique_ptr<fl::FedHdTrainer> make_trainer() {
    auto t = std::make_unique<fl::FedHdTrainer>(enc_.clients, enc_.test,
                                                config_);
    if (traced_) t->set_round_driver(traced_.get());
    return t;
  }

  fhdnn::core::EncodedFederatedData enc_;
  fl::FedHdConfig config_;
  fl::LocalRoundDriver local_;
  std::unique_ptr<TracingDriver> traced_;
  std::unique_ptr<fl::FedHdTrainer> trainer_;
  bool fresh_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_fedhd_paper() {
  return std::make_unique<FedHdPaper>();
}

}  // namespace perfbench
