#include "fl/fedhd.hpp"

#include <string>
#include <utility>

#include "channel/transport.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fhdnn::fl {

namespace detail {

/// LocalLearner seam: one-shot bundle on first contact, then E epochs of
/// HD refinement from the round's (possibly downlink-corrupted) broadcast.
class FedHdLearner final : public LocalLearner<Tensor> {
 public:
  FedHdLearner(const std::vector<HdClientData>& clients,
               const HdClientData& test, const FedHdConfig& config)
      : clients_(clients),
        test_(test),
        config_(config),
        global_(config.num_classes, config.hd_dim) {
    FHDNN_CHECK(clients_.size() == config_.n_clients,
                "have " << clients_.size() << " clients, config says "
                        << config_.n_clients);
    FHDNN_CHECK(config_.rounds > 0 && config_.local_epochs > 0,
                "FedHd config rounds/epochs");
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const auto& c = clients_[i];
      FHDNN_CHECK(c.h.ndim() == 2 && c.h.dim(1) == config_.hd_dim,
                  "client " << i << " hypervectors "
                            << shape_to_string(c.h.shape()));
      FHDNN_CHECK(c.h.dim(0) == static_cast<std::int64_t>(c.labels.size()) &&
                      !c.labels.empty(),
                  "client " << i << " label count");
    }
    FHDNN_CHECK(test_.h.ndim() == 2 && test_.h.dim(1) == config_.hd_dim &&
                    !test_.labels.empty(),
                "test set shape");
  }

  void begin_round(const Rng& round_rng) override {
    global_empty_ = global_.prototypes().l2_norm() == 0.0;
    // Broadcast: clients start from the (possibly corrupted) downlink copy.
    // A downlink that cannot change a bit needs no copy: the clients read
    // the global prototypes, which stay unchanged until the round commits.
    corrupted_downlink_ =
        config_.downlink.mode != channel::HdUplinkMode::Perfect &&
        !global_empty_;
    if (corrupted_downlink_) {
      broadcast_ = global_.prototypes();
      Rng down_rng = round_rng.fork("downlink");
      (void)channel::transmit_hd_model(broadcast_, config_.downlink, down_rng);
    }
  }

  TrainResult train(std::size_t client, Rng& /*client_rng*/) override {
    // HD refinement is deterministic given the data order; the client
    // stream stays unused (the channel draws from its own named fork).
    const auto& cdata = clients_[client];
    hdc::HdClassifier local(corrupted_downlink_ ? broadcast_
                                                : global_.prototypes());
    if (global_empty_) {
      local.bundle(cdata.h, cdata.labels);  // one-shot learning (§3.4.1)
    }
    std::int64_t updates = 0;
    for (int e = 0; e < config_.local_epochs; ++e) {
      updates = local.refine_epoch(cdata.h, cdata.labels);
    }
    return {std::move(local.prototypes()),
            static_cast<double>(updates) /
                static_cast<double>(cdata.labels.size())};
  }

  double evaluate() override { return accuracy(); }

  double accuracy() const { return global_.accuracy(test_.h, test_.labels); }

  hdc::HdClassifier& global() { return global_; }
  const hdc::HdClassifier& global() const { return global_; }

  /// The prototypes are the learner's only load-bearing state across
  /// snapshot boundaries: global_empty_, corrupted_downlink_ and the
  /// broadcast copy are only read inside the round prologue (begin_round
  /// + train), which runs entirely before the first event — a mid-round
  /// resume never needs them, and the next round's begin_round re-derives
  /// them.
  void save_state(util::SnapshotWriter& w) override {
    w.write_floats(global_.prototypes().vec());
  }

  /// An image always carries all K x d scalars; any other count, zero
  /// included, is rejected before the prototypes change.
  void load_state(util::SnapshotReader& r) override {
    const std::size_t at = r.offset();
    auto v = r.read_floats();
    const auto n = static_cast<std::size_t>(config_.num_classes) *
                   static_cast<std::size_t>(config_.hd_dim);
    if (v.size() != n) {
      throw util::DecodeError(util::DecodeErrorKind::kSchema, at,
                              "FedHd state holds " + std::to_string(v.size()) +
                                  " prototype scalars, the config needs " +
                                  std::to_string(n));
    }
    global_.set_prototypes(
        Tensor(Shape{config_.num_classes, config_.hd_dim}, std::move(v)));
  }

 private:
  const std::vector<HdClientData>& clients_;  // borrowed (fedhd.hpp)
  const HdClientData& test_;                  // borrowed (fedhd.hpp)
  const FedHdConfig& config_;
  hdc::HdClassifier global_;
  bool global_empty_ = true;
  bool corrupted_downlink_ = false;
  Tensor broadcast_;
};

/// Aggregator seam: Eq. 1 bundling, serial in fixed participant order,
/// divided by the delivered count (see the file header). begin_round
/// replaces the sum before any read, so the aggregator carries no state
/// across a snapshot.
class FedHdAggregator final : public Aggregator<Tensor> {
 public:
  FedHdAggregator(FedHdLearner& learner, const FedHdConfig& config)
      : learner_(learner), config_(config) {}

  void begin_round() override {
    aggregate_ = Tensor(Shape{config_.num_classes, config_.hd_dim});
  }

  void accumulate(std::size_t /*client*/, Tensor&& update) override {
    aggregate_.axpy(1.0F, update);
  }

  void accumulate_weighted(std::size_t /*client*/, Tensor&& update,
                           double weight) override {
    aggregate_.axpy(static_cast<float>(weight), update);
  }

  void commit(std::size_t delivered) override {
    commit_scaled(static_cast<double>(delivered));
  }

  void commit_weighted(std::size_t /*n_updates*/,
                       double total_weight) override {
    commit_scaled(total_weight);
  }

 private:
  void commit_scaled(double denom) {
    aggregate_.scale(1.0F / static_cast<float>(denom));
    learner_.global().set_prototypes(std::move(aggregate_));
  }

  FedHdLearner& learner_;
  const FedHdConfig& config_;
  Tensor aggregate_;
};

/// Owns the three seams and the adapter gluing them into a RoundProtocol.
class FedHdProtocol {
 public:
  FedHdProtocol(const std::vector<HdClientData>& clients,
                const HdClientData& test, FedHdConfig config)
      : config_(std::move(config)),
        transport_(config_.uplink),
        learner_(clients, test, config_),
        aggregator_(learner_, config_),
        adapter_(learner_, transport_, aggregator_) {}

  RoundProtocol& protocol() { return adapter_; }
  FedHdLearner& learner() { return learner_; }
  const FedHdLearner& learner() const { return learner_; }
  channel::HdModelTransport& transport() { return transport_; }
  const channel::HdModelTransport& transport() const { return transport_; }
  const FedHdConfig& config() const { return config_; }

 private:
  FedHdConfig config_;
  channel::HdModelTransport transport_;
  FedHdLearner learner_;
  FedHdAggregator aggregator_;
  ProtocolAdapter<Tensor> adapter_;
};

}  // namespace detail

FedHdTrainer::FedHdTrainer(const std::vector<HdClientData>& clients,
                           const HdClientData& test, FedHdConfig config)
    : protocol_(std::make_unique<detail::FedHdProtocol>(clients, test, config)),
      engine_(std::make_unique<RoundEngine>(
          EngineConfig{config.n_clients, config.client_fraction, config.rounds,
                       config.eval_every, config.dropout_prob, config.seed,
                       "fedhd", config.faults, config.deadline,
                       config.population, config.async, config.checkpoint,
                       config.crash},
          protocol_->protocol())) {
  // Registered client ids index the per-client dataset vector here, so a
  // fleet larger than the data is a config error for THIS trainer —
  // million-client fleets drive RoundEngine with a synthetic learner
  // instead (perfbench/src/workload_fleet_async.cpp).
  FHDNN_CHECK(!config.population.enabled() ||
                  config.population.n_registered <= config.n_clients,
              "FedHdTrainer population: n_registered "
                  << config.population.n_registered << " exceeds datasets "
                  << config.n_clients);
  // The engine's fault layer owns the per-client link-quality multipliers;
  // the transport scales channel error rates by them per delivery.
  protocol_->transport().set_error_scales(&engine_->faults().error_scales());
}

FedHdTrainer::~FedHdTrainer() = default;

TrainingHistory FedHdTrainer::run() { return engine_->run(); }

RoundMetrics FedHdTrainer::round(int round_index) {
  return engine_->round(round_index);
}

void FedHdTrainer::checkpoint(const std::string& path) {
  engine_->checkpoint(path);
}

void FedHdTrainer::resume(const std::string& path) { engine_->resume(path); }

double FedHdTrainer::evaluate() const { return protocol_->learner().accuracy(); }

const hdc::HdClassifier& FedHdTrainer::global() const {
  return protocol_->learner().global();
}

hdc::HdClassifier& FedHdTrainer::global() { return protocol_->learner().global(); }

RoundProtocol& FedHdTrainer::protocol() { return protocol_->protocol(); }

void FedHdTrainer::set_round_driver(RoundDriver* driver) {
  engine_->set_round_driver(driver);
}

std::uint32_t FedHdTrainer::config_fingerprint() const {
  return engine_->config_fingerprint();
}

std::uint64_t FedHdTrainer::update_bytes() const {
  const auto& cfg = protocol_->config();
  return protocol_->transport().update_bytes(
      static_cast<std::uint64_t>(cfg.num_classes) *
      static_cast<std::uint64_t>(cfg.hd_dim));
}

}  // namespace fhdnn::fl
