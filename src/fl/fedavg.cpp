#include "fl/fedavg.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "channel/transport.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/workspace.hpp"

namespace fhdnn::fl {

namespace detail {

namespace {

/// Most test examples per evaluation forward. Every layer computes each
/// example's logits independently of the rest of its batch, so the chunk
/// size moves no bit of the accuracy; it bounds each evaluating worker's
/// buffers.
constexpr std::int64_t kEvalBatch = 16;

}  // namespace

/// LocalLearner seam: E epochs of minibatch SGD from the broadcast state on
/// a private worker model. The worker pool grows to one instance per
/// concurrently-running task (a client's training or a lane of the
/// evaluation); every instance is fully overwritten with the global state
/// before use, so reuse is safe.
class FedAvgLearner final : public LocalLearner<std::vector<float>> {
 public:
  FedAvgLearner(ModelFactory factory, const data::Dataset& train,
                data::ClientIndices parts, const data::Dataset& test,
                const FedAvgConfig& config,
                channel::FloatStateTransport& transport)
      : factory_(std::move(factory)),
        train_(train),
        parts_(std::move(parts)),
        test_(test),
        config_(config),
        transport_(transport),
        root_rng_(config.seed),
        test_batch_(test.all()) {
    FHDNN_CHECK(parts_.size() == config_.n_clients,
                "partition has " << parts_.size() << " clients, config says "
                                 << config_.n_clients);
    FHDNN_CHECK(config_.local_epochs > 0,
                "FedAvg local_epochs " << config_.local_epochs);
    Rng init_rng = root_rng_.fork("init");
    global_ = factory_(init_rng);
    state_scalars_ = nn::state_size(*global_);
    global_state_ = nn::state_tensors(*global_);
    // Seed the worker pool with one instance; further instances on demand.
    Rng worker_rng = root_rng_.fork("worker-init");
    worker_pool_.push_back(make_worker(worker_rng));
    workers_created_ = 1;
  }

  void begin_round(const Rng& /*round_rng*/) override {
    // Snapshot of the broadcast model; update-subsampling falls back to it.
    if (config_.update_fraction < 1.0) {
      broadcast_state_ = nn::get_state(*global_);
      transport_.set_broadcast(&broadcast_state_);
    }
  }

  TrainResult train(std::size_t client, Rng& client_rng) override {
    auto worker = acquire_worker();
    auto [state, loss] = local_update(client, client_rng, *worker);
    release_worker(std::move(worker));
    return {std::move(state), loss};
  }

  /// Test accuracy of the global model. The test set is split into one
  /// contiguous range per lane, each run on a pooled worker in chunks of
  /// at most kEvalBatch, and the lanes' integer counts of correct
  /// predictions are summed. Each example's logits do not depend on its
  /// chunk, so the count is exact at every thread count.
  double evaluate() override {
    const std::int64_t n = test_batch_.x.dim(0);
    const std::int64_t lanes = std::min<std::int64_t>(
        parallel::num_threads(), (n + kEvalBatch - 1) / kEvalBatch);
    eval_workers_.clear();
    for (std::int64_t l = 0; l < lanes; ++l) {
      eval_workers_.push_back(acquire_worker());
    }
    eval_correct_.assign(static_cast<std::size_t>(lanes), 0);
    parallel::parallel_for(0, lanes, 1, [&](std::int64_t l0, std::int64_t l1) {
      for (std::int64_t l = l0; l < l1; ++l) {
        eval_correct_[static_cast<std::size_t>(l)] =
            evaluate_range(*eval_workers_[static_cast<std::size_t>(l)],
                           n * l / lanes, n * (l + 1) / lanes);
      }
    });
    std::int64_t correct = 0;
    for (const std::int64_t c : eval_correct_) correct += c;
    // Released in reverse, so the next evaluation hands each lane the
    // worker (and buffers) it had this time.
    while (!eval_workers_.empty()) {
      release_worker(std::move(eval_workers_.back()));
      eval_workers_.pop_back();
    }
    return static_cast<double>(correct) / static_cast<double>(n);
  }

  nn::Module& global_model() { return *global_; }
  std::int64_t state_scalars() const { return state_scalars_; }
  const data::ClientIndices& parts() const { return parts_; }

  /// The global weights are the learner's only load-bearing state: each
  /// pooled worker is overwritten with them before every use, and the
  /// subsampling broadcast snapshot is re-derived by begin_round.
  void save_state(util::SnapshotWriter& w) override {
    w.write_floats(nn::get_state(*global_));
  }

  /// An image always carries every state scalar; any other count is
  /// rejected before the weights change.
  void load_state(util::SnapshotReader& r) override {
    const std::size_t at = r.offset();
    const std::vector<float> state = r.read_floats();
    if (state.size() != static_cast<std::size_t>(state_scalars_)) {
      throw util::DecodeError(
          util::DecodeErrorKind::kSchema, at,
          "FedAvg state holds " + std::to_string(state.size()) +
              " scalars, the model needs " + std::to_string(state_scalars_));
    }
    nn::set_state(*global_, state);
  }

 private:
  /// A pooled model instance with what its owner reuses across tasks.
  struct Worker {
    std::unique_ptr<nn::Module> model;
    std::vector<Tensor*> state;       // nn::state_tensors(*model)
    Shape xb_shape;                   // evaluation chunk geometry
    Tensor xb;                        // evaluation chunk input
    std::vector<std::int64_t> preds;  // evaluation chunk argmax
  };

  /// Builds a worker model. Its input is always a data batch, so no caller
  /// reads its input gradient.
  std::unique_ptr<Worker> make_worker(Rng& rng) {
    auto worker = std::make_unique<Worker>();
    worker->model = factory_(rng);
    FHDNN_CHECK(nn::state_size(*worker->model) == state_scalars_,
                "factory produced mismatched architectures");
    worker->model->set_input_grad_needed(false);
    worker->state = nn::state_tensors(*worker->model);
    return worker;
  }

  /// Check out / return a model instance.
  std::unique_ptr<Worker> acquire_worker() {
    std::size_t id = 0;
    {
      const std::lock_guard<std::mutex> lock(worker_mu_);
      if (!worker_pool_.empty()) {
        auto worker = std::move(worker_pool_.back());
        worker_pool_.pop_back();
        return worker;
      }
      id = ++workers_created_;
    }
    // The instance is fully overwritten with the global state before use,
    // so the init stream only needs to be unique, not meaningful.
    Rng rng = root_rng_.fork("worker-init-" + std::to_string(id));
    return make_worker(rng);
  }

  void release_worker(std::unique_ptr<Worker> worker) {
    const std::lock_guard<std::mutex> lock(worker_mu_);
    worker_pool_.push_back(std::move(worker));
  }

  /// Correct predictions of the global model on test examples
  /// [begin, end), run on `worker` in eval mode.
  std::int64_t evaluate_range(Worker& worker, std::int64_t begin,
                              std::int64_t end) {
    nn::copy_state(global_state_, worker.state);
    worker.model->set_training(false);
    const std::int64_t per = test_batch_.x.numel() / test_batch_.x.dim(0);
    worker.xb_shape = test_batch_.x.shape();
    std::int64_t correct = 0;
    for (std::int64_t b = begin; b < end; b += kEvalBatch) {
      const std::int64_t len = std::min(kEvalBatch, end - b);
      worker.xb_shape[0] = len;
      worker.xb.ensure_shape(worker.xb_shape);
      std::copy_n(test_batch_.x.data().begin() +
                      static_cast<std::ptrdiff_t>(b * per),
                  len * per, worker.xb.data().begin());
      worker.preds.resize(static_cast<std::size_t>(len));
      // Count correct predictions directly — reconstructing the count from
      // the accuracy ratio can round off by one.
      ops::argmax_rows_into(worker.model->forward(worker.xb), worker.preds);
      for (std::int64_t i = 0; i < len; ++i) {
        correct += worker.preds[static_cast<std::size_t>(i)] ==
                   test_batch_.labels[static_cast<std::size_t>(b + i)];
      }
    }
    return correct;
  }

  /// Train `client` locally from the current global state into `worker`;
  /// returns its post-training state and mean loss. Thread-safe given a
  /// private `worker` and `rng`: it only reads `global_`, `train_`, and
  /// `parts_`.
  std::pair<std::vector<float>, double> local_update(std::size_t client,
                                                     Rng& rng,
                                                     Worker& w) {
    nn::copy_state(global_state_, w.state);
    nn::Module& worker = *w.model;
    worker.set_training(true);
    nn::Sgd opt(worker, {config_.lr, config_.momentum, config_.weight_decay});
    nn::CrossEntropyLoss loss_fn;
    const auto& indices = parts_[client];
    FHDNN_CHECK(!indices.empty(), "client " << client << " has no data");
    double total_loss = 0.0;
    std::size_t batches = 0;
    for (int e = 0; e < config_.local_epochs; ++e) {
      data::BatchIterator it(indices.size(), config_.batch_size, rng);
      while (!it.done()) {
        const auto local_idx = it.next();
        std::vector<std::size_t> batch_idx;
        batch_idx.reserve(local_idx.size());
        for (const std::size_t i : local_idx) batch_idx.push_back(indices[i]);
        const auto batch = train_.gather(batch_idx);
        // Steady-state contract: after the first batch at this shape the
        // arena is warm and the whole step below allocates nothing.
        util::tls_workspace().reset();
        opt.zero_grad();
        const Tensor& logits = worker.forward(batch.x);
        total_loss += loss_fn.forward(logits, batch.labels);
        worker.backward(loss_fn.backward());
        opt.step();
        ++batches;
        // Batch boundary: forward/backward/step must leave no Scope open
        // (the reset() above would throw next iteration, but catching it
        // here points at the offending batch).
        FHDNN_CHECKED_ASSERT(util::tls_workspace().scope_depth() == 0,
                             "workspace Scope leaked across a batch");
      }
    }
    return {nn::get_state(worker),
            batches ? total_loss / static_cast<double>(batches) : 0.0};
  }

  ModelFactory factory_;
  const data::Dataset& train_;
  data::ClientIndices parts_;
  const data::Dataset& test_;
  const FedAvgConfig& config_;
  channel::FloatStateTransport& transport_;
  Rng root_rng_;
  std::unique_ptr<nn::Module> global_;
  std::vector<Tensor*> global_state_;  // nn::state_tensors(*global_)
  std::vector<std::unique_ptr<Worker>> worker_pool_;
  std::vector<std::unique_ptr<Worker>> eval_workers_;  // one per lane
  std::vector<std::int64_t> eval_correct_;             // one per lane
  std::mutex worker_mu_;
  std::size_t workers_created_ = 0;
  std::int64_t state_scalars_ = 0;
  std::vector<float> broadcast_state_;
  data::Dataset::Batch test_batch_;
};

/// Aggregator seam: example-count weighted averaging, serial in fixed
/// participant order. begin_round replaces the sum and its weight before
/// any read, so the aggregator carries no state across a snapshot.
class FedAvgAggregator final : public Aggregator<std::vector<float>> {
 public:
  explicit FedAvgAggregator(FedAvgLearner& learner) : learner_(learner) {}

  void begin_round() override {
    aggregate_.assign(static_cast<std::size_t>(learner_.state_scalars()),
                      0.0F);
    weight_total_ = 0.0;
  }

  void accumulate(std::size_t client, std::vector<float>&& state) override {
    accumulate_weighted(client, std::move(state), 1.0);
  }

  /// Buffered-async staleness weight multiplies the data-size weight, so a
  /// stale update from a big client still outweighs a fresh tiny one —
  /// and the weight it adds to the normalizer is discounted the same way.
  void accumulate_weighted(std::size_t client, std::vector<float>&& state,
                           double weight) override {
    const double w =
        static_cast<double>(learner_.parts()[client].size()) * weight;
    for (std::size_t i = 0; i < state.size(); ++i) {
      aggregate_[i] += static_cast<float>(w) * state[i];
    }
    weight_total_ += w;
  }

  void commit(std::size_t /*delivered*/) override {
    FHDNN_CHECK(weight_total_ > 0.0, "no data among participants");
    const float inv = static_cast<float>(1.0 / weight_total_);
    for (auto& v : aggregate_) v *= inv;
    nn::set_state(learner_.global_model(), aggregate_);
  }

  void commit_weighted(std::size_t delivered,
                       double /*total_weight*/) override {
    // weight_total_ already folds the staleness discounts in.
    commit(delivered);
  }

 private:
  FedAvgLearner& learner_;
  std::vector<float> aggregate_;
  double weight_total_ = 0.0;
};

/// Owns the three seams and the adapter gluing them into a RoundProtocol.
class FedAvgProtocol {
 public:
  FedAvgProtocol(ModelFactory factory, const data::Dataset& train,
                 data::ClientIndices parts, const data::Dataset& test,
                 FedAvgConfig config, const channel::Channel* uplink)
      : config_(config),
        transport_(config_.update_fraction, uplink),
        learner_(std::move(factory), train, std::move(parts), test, config_,
                 transport_),
        aggregator_(learner_),
        adapter_(learner_, transport_, aggregator_) {}

  RoundProtocol& protocol() { return adapter_; }
  FedAvgLearner& learner() { return learner_; }
  channel::FloatStateTransport& transport() { return transport_; }
  const FedAvgConfig& config() const { return config_; }

 private:
  FedAvgConfig config_;
  channel::FloatStateTransport transport_;
  FedAvgLearner learner_;
  FedAvgAggregator aggregator_;
  ProtocolAdapter<std::vector<float>> adapter_;
};

}  // namespace detail

FedAvgTrainer::FedAvgTrainer(ModelFactory factory, const data::Dataset& train,
                             data::ClientIndices parts,
                             const data::Dataset& test, FedAvgConfig config,
                             const channel::Channel* uplink)
    : protocol_(std::make_unique<detail::FedAvgProtocol>(
          std::move(factory), train, std::move(parts), test, config, uplink)),
      engine_(std::make_unique<RoundEngine>(
          EngineConfig{config.n_clients, config.client_fraction, config.rounds,
                       config.eval_every, config.dropout_prob, config.seed,
                       "fedavg", config.faults, config.deadline, {},
                       config.async, config.checkpoint, config.crash},
          protocol_->protocol())) {
  // The engine's fault layer owns the per-client link-quality multipliers;
  // the transport scales channel error rates by them per delivery.
  protocol_->transport().set_error_scales(&engine_->faults().error_scales());
}

FedAvgTrainer::~FedAvgTrainer() = default;

TrainingHistory FedAvgTrainer::run() { return engine_->run(); }

RoundMetrics FedAvgTrainer::round(int round_index) {
  return engine_->round(round_index);
}

void FedAvgTrainer::checkpoint(const std::string& path) {
  engine_->checkpoint(path);
}

void FedAvgTrainer::resume(const std::string& path) { engine_->resume(path); }

double FedAvgTrainer::evaluate() { return protocol_->learner().evaluate(); }

nn::Module& FedAvgTrainer::global_model() {
  return protocol_->learner().global_model();
}

RoundProtocol& FedAvgTrainer::protocol() { return protocol_->protocol(); }

void FedAvgTrainer::set_round_driver(RoundDriver* driver) {
  engine_->set_round_driver(driver);
}

std::uint32_t FedAvgTrainer::config_fingerprint() const {
  return engine_->config_fingerprint();
}

}  // namespace fhdnn::fl
