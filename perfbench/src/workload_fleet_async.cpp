// fleet_async: the round engine alone at fleet scale. A sparse population
// of 1 000 000 registered clients, ~10 000 sampled per round (plus 25%
// over-selection), FedBuff-style buffered-async acceptance with staleness
// weights, and exact-sum fan-in aggregation: four regional aggregators
// each reduce their share of the cohort with fl::hierarchical_sum, in
// parallel on the pool, and the root adds their models exactly in a
// util::ExactSumVector. The client is a synthetic HD learner defined here: its
// update is a faint copy of a hidden d = 1000 sign pattern buried in
// uniform noise, so the aggregate recovers the pattern only by summing
// thousands of updates, and evaluate() (the share of dimensions whose sign
// matches) checks the whole sample -> accept -> reduce path. Set-up
// registers the fleet: it builds the engine and takes a census of every
// registered client's profile (mean availability, straggler share) in O(1)
// memory, which the gate checks against the configuration. Memory is
// bounded by the cohort.
#include <array>
#include <cmath>
#include <vector>

#include "bench_workload.hpp"
#include "env.hpp"
#include "channel/transport.hpp"
#include "fl/engine.hpp"
#include "fl/hierarchy.hpp"
#include "tensor/tensor.hpp"
#include "util/exactsum.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace fl = fhdnn::fl;
using fhdnn::Rng;
using fhdnn::Shape;
using fhdnn::Tensor;

namespace {

constexpr int kRounds = 10;
constexpr std::size_t kRegistered = 1'000'000;
constexpr std::size_t kSampled = 10'000;
constexpr std::int64_t kDim = 1000;
constexpr std::size_t kFanIn = 16;
constexpr std::size_t kRegions = 4;
constexpr float kSignal = 0.01F;  // per-update signal against U(-1, 1) noise
constexpr double kAvailability = 0.8;
constexpr double kStragglers = 0.1;
constexpr double kSlowdown = 4.0;

/// Deals the round's staleness-weighted updates (moved in, not copied)
/// round-robin to kRegions regional aggregators. At commit each region
/// reduces its share with fl::hierarchical_sum (edge accumulators of kFanIn
/// updates merging up a tree of exact sums, rounded once), the regions in
/// parallel, and the root adds the regional models in an ExactSumVector.
/// The committed model depends on the arrival order only, never on the
/// thread count.
class TreeSumAggregator final : public fl::Aggregator<Tensor> {
 public:
  TreeSumAggregator() : global_(Shape{kDim}) {}

  void begin_round() override {
    for (auto& region : regions_) region.clear();
    arrivals_ = 0;
  }
  void accumulate(std::size_t client, Tensor&& update) override {
    accumulate_weighted(client, std::move(update), 1.0);
  }
  void accumulate_weighted(std::size_t /*client*/, Tensor&& update,
                           double weight) override {
    if (weight != 1.0) {
      for (auto& v : update.data()) v *= static_cast<float>(weight);
    }
    regions_[arrivals_++ % kRegions].push_back(std::move(update));
  }
  void commit(std::size_t delivered) override {
    commit_weighted(delivered, static_cast<double>(delivered));
  }
  void commit_weighted(std::size_t /*n_updates*/, double total_weight) override {
    std::array<Tensor, kRegions> regional;
    fhdnn::parallel::parallel_for(
        0, static_cast<std::int64_t>(kRegions), 1,
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t r = b; r < e; ++r) {
            const auto i = static_cast<std::size_t>(r);
            if (!regions_[i].empty()) {
              regional[i] = fl::hierarchical_sum(regions_[i], kFanIn);
            }
          }
        });
    fhdnn::util::ExactSumVector root(static_cast<std::size_t>(kDim));
    for (std::size_t i = 0; i < kRegions; ++i) {
      if (!regions_[i].empty()) root.add(regional[i].data());
    }
    root.round_to(global_.data());
    begin_round();
    const float inv = 1.0F / static_cast<float>(total_weight);
    for (auto& v : global_.data()) v *= inv;
  }
  void save_state(fhdnn::util::SnapshotWriter& w) override {
    const auto g = global_.data();
    w.write_floats(std::vector<float>(g.begin(), g.end()));
  }
  void load_state(fhdnn::util::SnapshotReader& r) override {
    const std::vector<float> g = r.read_floats();
    FHDNN_CHECK(g.size() == static_cast<std::size_t>(kDim),
                "fleet global model has " << g.size() << " scalars");
    std::copy(g.begin(), g.end(), global_.data().begin());
  }
  const Tensor& global() const { return global_; }

 private:
  std::array<std::vector<Tensor>, kRegions> regions_;
  std::size_t arrivals_ = 0;
  Tensor global_;
};

class PatternLearner final : public fl::LocalLearner<Tensor> {
 public:
  PatternLearner(std::uint64_t seed, const TreeSumAggregator& aggregator)
      : pattern_(static_cast<std::size_t>(kDim)), aggregator_(aggregator) {
    Rng rng = Rng(seed).fork("pattern");
    for (auto& p : pattern_) p = rng.uniform(-1.0, 1.0) < 0.0 ? -1.0F : 1.0F;
  }

  TrainResult train(std::size_t /*client*/, Rng& client_rng) override {
    TrainResult r;
    r.update = Tensor(Shape{kDim});
    auto out = r.update.data();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = kSignal * pattern_[i] +
               static_cast<float>(client_rng.uniform(-1.0, 1.0));
    }
    r.loss = 0.5;
    return r;
  }

  double evaluate() override {
    const auto g = aggregator_.global().data();
    std::size_t match = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      match += (g[i] >= 0.0F) == (pattern_[i] > 0.0F) ? 1 : 0;
    }
    return static_cast<double>(match) / static_cast<double>(g.size());
  }

 private:
  std::vector<float> pattern_;
  const TreeSumAggregator& aggregator_;
};

/// One bit per dimension on the air; the payload passes unchanged.
class BinaryHdTransport final : public fhdnn::channel::Transport<Tensor> {
 public:
  fhdnn::channel::TransportStats transmit(Tensor& /*update*/,
                                          std::size_t /*client*/,
                                          Rng& /*client_rng*/,
                                          const Rng& /*round_rng*/)
      const override {
    fhdnn::channel::TransportStats s;
    s.payload_scalars = kDim;
    s.payload_bytes = update_bytes(kDim);
    s.bits_on_air = kDim;
    return s;
  }
  std::uint64_t update_bytes(std::uint64_t scalars) const override {
    return (scalars + 7) / 8;
  }
  std::string name() const override { return "binary-hd"; }
};

/// Everything one campaign owns: the seams, the adapter and the engine.
struct Fleet {
  Fleet(std::uint64_t seed, fl::RoundDriver* driver)
      : learner(seed, aggregator), adapter(learner, transport, aggregator) {
    fl::EngineConfig cfg;
    cfg.client_fraction =
        static_cast<double>(kSampled) / static_cast<double>(kRegistered);
    cfg.rounds = kRounds;
    cfg.eval_every = 1;
    cfg.seed = seed;
    cfg.name = "fleet";
    cfg.population.n_registered = kRegistered;
    cfg.population.mean_availability = kAvailability;
    cfg.population.straggler_fraction = kStragglers;
    cfg.population.straggler_slowdown = kSlowdown;
    cfg.population.compute_spread = 0.5;
    cfg.population.link_spread_max = 2.0;
    cfg.async.enabled = true;
    cfg.async.timeline.update_bits = static_cast<std::uint64_t>(kDim);
    cfg.async.timeline.fhdnn = true;
    cfg.async.timeline.compute_jitter = 0.1;
    cfg.async.over_selection = 0.25;
    cfg.async.staleness_exponent = 0.5;
    cfg.async.max_staleness = 2;
    engine = std::make_unique<fl::RoundEngine>(cfg, adapter);
    if (driver) engine->set_round_driver(driver);
  }

  TreeSumAggregator aggregator;
  PatternLearner learner;
  BinaryHdTransport transport;
  fl::ProtocolAdapter<Tensor> adapter;
  std::unique_ptr<fl::RoundEngine> engine;
};

class FleetAsync final : public Workload {
 public:
  int threads() const override { return nproc(); }
  int campaign_rounds() const override { return kRounds; }
  double nominal_campaign_seconds() const override { return 1.2; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    fleet_.reset();
    traced_.reset();
    seed_ = seed;
    if (tracer) {
      traced_ = std::make_unique<TracingDriver>(local_, *tracer,
                                                TracingProtocol::Side::kServer);
    }
    fleet_ = std::make_unique<Fleet>(seed_, traced_.get());
    census();
    fresh_ = true;
  }

  void begin_campaign() override {
    if (!fresh_) {
      fleet_.reset();
      fleet_ = std::make_unique<Fleet>(seed_, traced_.get());
    }
    fresh_ = false;
  }

  fl::RoundMetrics round(int r) override { return fleet_->engine->round(r); }
  double evaluate() override { return fleet_->adapter.evaluate(); }
  TracingDriver* tracing_driver() override { return traced_.get(); }

  void gate(const std::string& first_history,
            std::vector<std::string>& failures, Tracer* tracer) override {
    (void)first_history;
    if (std::abs(mean_availability_ - kAvailability) > 0.01 ||
        std::abs(straggler_share_ - kStragglers) > 0.005) {
      failures.push_back("fleet census: availability " +
                         std::to_string(mean_availability_) + ", stragglers " +
                         std::to_string(straggler_share_));
    }
    Fleet fresh(seed_, nullptr);
    gate_resume(*fleet_->engine, *fresh.engine, "fleet_async", failures,
                tracer);
  }

  void probe(LayerMetrics& out, Tracer& tracer) override {
    probe_wire(fleet_->adapter, kSampled, out);
    probe_checkpoint(*fleet_->engine, "fleet_async", out, tracer);
  }

 private:
  /// Visit every registered client's profile once.
  void census() {
    const fl::ClientPopulation& pop = *fleet_->engine->population();
    double availability = 0.0;
    std::size_t stragglers = 0;
    for (std::size_t c = 0; c < pop.n_registered(); ++c) {
      const fl::ClientProfile p = pop.profile(c);
      availability += p.availability;
      stragglers += p.compute_factor >= kSlowdown ? 1 : 0;
    }
    const auto n = static_cast<double>(pop.n_registered());
    mean_availability_ = availability / n;
    straggler_share_ = static_cast<double>(stragglers) / n;
  }

  double mean_availability_ = 0.0;
  double straggler_share_ = 0.0;
  std::uint64_t seed_ = 1;
  fl::LocalRoundDriver local_;
  std::unique_ptr<TracingDriver> traced_;
  std::unique_ptr<Fleet> fleet_;
  bool fresh_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_async() {
  return std::make_unique<FleetAsync>();
}

}  // namespace perfbench
