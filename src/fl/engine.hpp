// The generic federated round engine both trainers share.
//
// FedAvg over CNNs and federated bundling over HD models run the *same*
// synchronous protocol (paper §3.4.2 / McMahan et al.); only three seams
// differ:
//   * LocalLearner — how one client trains from the round's broadcast and
//     what its update looks like (flat float state vs. prototype matrix);
//   * channel::Transport — how an update is serialized, corrupted on the
//     uplink, and accounted (channel/transport.hpp);
//   * Aggregator — how delivered updates reduce into the global model
//     (weighted averaging vs. bundling).
//
// RoundEngine owns everything else: client sampling (fraction C),
// pre-drawn dropout coins, client-parallel local updates on the
// util/parallel.hpp pool, serial fixed-order reduction, the evaluation
// schedule, and per-round accounting (wall-clock time, sampled /
// delivered / dropped counts, uplink traffic) — so both trainers report
// identically through RoundMetrics.
//
// Two robustness layers ride on top of the plain dropout coin (ISSUE:
// ARQ + faults + deadlines). A FaultModel (fl/faults.hpp, engine fork
// "faults") injects per-client crashes, outage windows, stragglers, and
// link-quality multipliers; a DeadlineConfig turns rounds deadline-based:
// the engine over-selects participants, simulates each delivery's duration
// from its measured transport stats via FlTimeline (ARQ retransmissions
// and backoff included), and accepts only the first clients_per_round()
// deliveries inside the deadline — late updates are discarded but their
// traffic is charged (RoundMetrics::timed_out). Both layers are off by
// default and change nothing when off.
//
// Timed rounds are DISCRETE-EVENT (DESIGN.md §12): whenever a timeline is
// configured (deadline or buffered-async mode), each delivered
// participant schedules kTrainDone and kUploadArrival events on the
// engine's EventQueue and the server's acceptance decision replays them
// in deterministic simulated-time order — (time, client, seq), never
// insertion or thread order. On top of the event clock sit two opt-in
// scale layers:
//   * PopulationConfig — a sparse ClientPopulation of millions of
//     registered clients (fl/population.hpp) whose availability windows,
//     compute factors, and link quality are pure functions of
//     (seed, client id); only the sampled clients of a round hold any
//     state, so memory is bounded by the round size, not the fleet size.
//     Sampled clients asleep at round start never train (counted as
//     dropped); awake clients' compute/link factors stretch their event
//     times. Requires a timed mode (deadline or async).
//   * AsyncConfig — FedBuff-style buffered-async acceptance: the round
//     commits when the first K uploads have arrived; later arrivals are
//     buffered (RoundMetrics::timed_out in their arrival round) and
//     folded into a later round's aggregate with staleness weight
//     (1 + staleness)^-exponent (RoundMetrics::stale_accepted), or
//     expired past max_staleness. Mutually exclusive with deadline mode.
//
// Determinism contract (DESIGN.md §6): every round forks a named stream
// root.fork("round-<r>"), from which the engine forks "sample", "dropout",
// "jitter" (deadline rounds), and "client-<id>" per participant; seams
// fork their own named streams from those ("mask", "channel",
// "channel-<id>", "downlink"), and the fault layer draws only from forks
// of root.fork("faults") that are pure in (client, round). Forking never
// perturbs the parent, coins are pre-drawn in participant order, and the
// reduction is serial in participant order — histories are bit-identical
// at every FHDNN_THREADS setting (wall_seconds excepted).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "channel/transport.hpp"
#include "fl/events.hpp"
#include "fl/faults.hpp"
#include "fl/history.hpp"
#include "fl/population.hpp"
#include "fl/sampler.hpp"
#include "fl/timeline.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"

namespace fhdnn {
class Tensor;  // codec specialization below; engine.cpp sees the full type
}  // namespace fhdnn

namespace fhdnn::fl {

/// How a protocol's Update type crosses a snapshot boundary. The primary
/// template throws at runtime instead of failing to compile: virtual
/// members of a class template are instantiated with its vtable, so a
/// compile-time error here would break every ProtocolAdapter whose update
/// type never checkpoints (synthetic bench seams). Engines whose protocols
/// should checkpoint use the std::vector<float> / Tensor specializations.
template <typename Update>
struct UpdateSnapshotCodec {
  static void save(util::SnapshotWriter& w, const Update& u) {
    (void)w;
    (void)u;
    throw util::DecodeError(util::DecodeErrorKind::kSchema, 0,
                            "update type has no snapshot codec");
  }
  static Update load(util::SnapshotReader& r) {
    (void)r;
    throw util::DecodeError(util::DecodeErrorKind::kSchema, 0,
                            "update type has no snapshot codec");
  }
};

/// Flat float states (FedAvg). Defined in engine.cpp.
template <>
struct UpdateSnapshotCodec<std::vector<float>> {
  static void save(util::SnapshotWriter& w, const std::vector<float>& u);
  static std::vector<float> load(util::SnapshotReader& r);
};

/// Prototype matrices (FedHd). Defined in engine.cpp.
template <>
struct UpdateSnapshotCodec<Tensor> {
  static void save(util::SnapshotWriter& w, const Tensor& u);
  static Tensor load(util::SnapshotReader& r);
};

/// Trains one client from the current broadcast model — the learner seam.
template <typename Update>
class LocalLearner {
 public:
  virtual ~LocalLearner() = default;

  struct TrainResult {
    Update update{};
    double loss = 0.0;  ///< mean local loss (CNN) or error rate (HD)
  };

  /// Serial, once per round before any client runs: refresh the broadcast
  /// copy clients start from (downlink corruption, reference snapshots).
  virtual void begin_round(const Rng& round_rng) { (void)round_rng; }

  /// Train `client` starting from the round's broadcast and return its
  /// update. Called concurrently for distinct clients: implementations may
  /// only read shared state and must draw all randomness from `client_rng`
  /// (the engine-named fork "client-<id>" of the round stream).
  virtual TrainResult train(std::size_t client, Rng& client_rng) = 0;

  /// Test-set accuracy of the current global model.
  virtual double evaluate() = 0;

  /// Snapshot seam: persist / restore whatever learner state feeds future
  /// rounds (the global model, broadcast caches derivable from it may be
  /// skipped). Default: stateless. Non-const because model extraction
  /// (nn::get_state) takes mutable module references.
  virtual void save_state(util::SnapshotWriter& w) { (void)w; }
  virtual void load_state(util::SnapshotReader& r) { (void)r; }
};

/// Folds delivered updates into the global model — the aggregation seam.
/// The engine drives begin_round, then accumulate for each *delivered*
/// participant serially in fixed participant order, then commit once when
/// at least one update was delivered (an all-dropped round leaves the
/// global model untouched).
template <typename Update>
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  virtual void begin_round() = 0;
  virtual void accumulate(std::size_t client, Update&& update) = 0;
  virtual void commit(std::size_t delivered) = 0;

  /// Buffered-async rounds fold updates in with a staleness weight (fresh
  /// arrivals get 1.0). The default ignores the weight — correct only for
  /// aggregators whose commit doesn't normalize by count; weighted
  /// protocols override both weighted hooks together.
  virtual void accumulate_weighted(std::size_t client, Update&& update,
                                   double weight) {
    (void)weight;
    accumulate(client, std::move(update));
  }

  /// Commit `n_updates` accumulated with total weight `total_weight`
  /// (fresh count 1.0 each + staleness-weighted late ones). Default
  /// delegates to commit(n_updates), ignoring the weights.
  virtual void commit_weighted(std::size_t n_updates, double total_weight) {
    (void)total_weight;
    commit(n_updates);
  }

  /// Snapshot seam: persist / restore state the aggregator carries from
  /// one round to the next. No checkpoint falls inside reduce(), so an
  /// accumulator that begin_round replaces needs none. Default: stateless.
  virtual void save_state(util::SnapshotWriter& w) { (void)w; }
  virtual void load_state(util::SnapshotReader& r) { (void)r; }
};

/// What the engine learns about one participant's parallel task.
struct ClientReport {
  double loss = 0.0;
  channel::TransportStats stats;  ///< zeros for dropped participants
};

/// Type-erased face of a (LocalLearner, Transport, Aggregator) triple; the
/// engine drives rounds through it without knowing the update type. Use
/// ProtocolAdapter to assemble one from the typed seams.
class RoundProtocol {
 public:
  virtual ~RoundProtocol() = default;

  /// Serial round prologue; `n_participants` slots will run.
  virtual void begin_round(const Rng& round_rng,
                          std::size_t n_participants) = 0;

  /// Train participant `slot` (client id `client`); when `delivered`, also
  /// push its update through the transport and retain it for reduce().
  /// Thread-safe across distinct slots.
  virtual ClientReport run_client(std::size_t slot, std::size_t client,
                                  const Rng& round_rng, bool delivered) = 0;

  /// Serial fixed-order reduction of the delivered updates into the global
  /// model. `participants[i]` is slot i's client id; `delivered[i]` its
  /// pre-drawn delivery coin.
  virtual void reduce(const std::vector<std::size_t>& participants,
                      const std::vector<char>& delivered) = 0;

  /// What a buffered-async reduction did with the cross-round buffer.
  struct AsyncReduceStats {
    std::size_t stale_applied = 0;  ///< buffered updates folded in (weighted)
    std::size_t stale_expired = 0;  ///< buffered updates dropped (too stale)
    std::size_t buffered = 0;       ///< this round's late arrivals buffered
  };

  /// Buffered-async reduction: fold the `accepted` slots in at weight 1.0
  /// plus any buffered late updates from earlier rounds at
  /// (1 + staleness)^-staleness_exponent, then buffer this round's `late`
  /// slots for a later round (expired past max_staleness). The default
  /// ignores the buffer and reduces the accepted slots synchronously —
  /// protocols that can hold updates across rounds (ProtocolAdapter)
  /// override it.
  virtual AsyncReduceStats reduce_async(
      const std::vector<std::size_t>& participants,
      const std::vector<char>& accepted, const std::vector<char>& late,
      double staleness_exponent, int max_staleness) {
    (void)late;
    (void)staleness_exponent;
    (void)max_staleness;
    reduce(participants, accepted);
    return {};
  }

  virtual double evaluate() = 0;

  /// Snapshot seam driven by RoundEngine checkpoints: persist / restore
  /// everything the protocol carries across or within rounds (per-slot
  /// update buffers, the cross-round staleness backlog, the seams' own
  /// state). Default: stateless, so mocks and synthetic protocols opt out.
  virtual void save_state(util::SnapshotWriter& w) { (void)w; }
  virtual void load_state(util::SnapshotReader& r) { (void)r; }

  /// Wire seam (fhdnnd serving, fl/serving.hpp): serialize the update a
  /// run_client(slot, ...) retained, or install one received over a
  /// connection into that slot. Only meaningful between begin_round and
  /// reduce. Defaults throw — mocks and synthetic protocols never cross a
  /// wire; ProtocolAdapter implements both via UpdateSnapshotCodec.
  virtual void save_update(std::size_t slot, util::SnapshotWriter& w) {
    (void)slot;
    (void)w;
    throw util::DecodeError(util::DecodeErrorKind::kSchema, 0,
                            "protocol has no update wire codec");
  }
  virtual void load_update(std::size_t slot, util::SnapshotReader& r) {
    (void)slot;
    (void)r;
    throw util::DecodeError(util::DecodeErrorKind::kSchema, 0,
                            "protocol has no update wire codec");
  }
};

/// Glues the three typed seams into a RoundProtocol, holding the per-slot
/// update buffer between the parallel section and the serial reduction.
template <typename Update>
class ProtocolAdapter final : public RoundProtocol {
 public:
  /// All three seams must outlive the adapter.
  ProtocolAdapter(LocalLearner<Update>& learner,
                  channel::Transport<Update>& transport,
                  Aggregator<Update>& aggregator)
      : learner_(learner), transport_(transport), aggregator_(aggregator) {}

  void begin_round(const Rng& round_rng, std::size_t n_participants) override {
    learner_.begin_round(round_rng);
    outcomes_.clear();
    outcomes_.resize(n_participants);
  }

  ClientReport run_client(std::size_t slot, std::size_t client,
                          const Rng& round_rng, bool delivered) override {
    Rng client_rng = round_rng.fork("client-" + std::to_string(client));
    auto result = learner_.train(client, client_rng);
    ClientReport report;
    report.loss = result.loss;
    if (delivered) {
      // Dropped participants trained (and paid the compute), but nothing
      // reaches the channel or the server and no traffic is accounted.
      report.stats =
          transport_.transmit(result.update, client, client_rng, round_rng);
      outcomes_[slot] = std::move(result.update);
    }
    return report;
  }

  void reduce(const std::vector<std::size_t>& participants,
              const std::vector<char>& delivered) override {
    aggregator_.begin_round();
    std::size_t n = 0;
    for (std::size_t slot = 0; slot < participants.size(); ++slot) {
      if (!delivered[slot]) continue;
      ++n;
      aggregator_.accumulate(participants[slot], std::move(outcomes_[slot]));
    }
    if (n > 0) aggregator_.commit(n);
    // Canonical end-of-round state: an empty buffer, not a vector of
    // moved-from husks — keeps round-boundary snapshots small and makes
    // snapshot -> restore -> snapshot byte-identical.
    outcomes_.clear();
  }

  /// FedBuff-style buffered reduction. Serial, deterministic order:
  /// surviving buffered updates first (in the order they were buffered),
  /// then this round's accepted slots in slot order; late slots move into
  /// the buffer at staleness 0 and age by one each subsequent round.
  AsyncReduceStats reduce_async(const std::vector<std::size_t>& participants,
                                const std::vector<char>& accepted,
                                const std::vector<char>& late,
                                double staleness_exponent,
                                int max_staleness) override {
    AsyncReduceStats stats;
    aggregator_.begin_round();
    // Age the buffer; expire entries past max_staleness before applying.
    std::vector<StaleUpdate> survivors;
    survivors.reserve(stale_.size());
    for (auto& entry : stale_) {
      ++entry.staleness;
      if (entry.staleness > max_staleness) {
        ++stats.stale_expired;
      } else {
        survivors.push_back(std::move(entry));
      }
    }
    stale_ = std::move(survivors);
    double total_weight = 0.0;
    std::size_t applied = 0;
    for (auto& entry : stale_) {
      const double w =
          std::pow(1.0 + static_cast<double>(entry.staleness),
                   -staleness_exponent);
      aggregator_.accumulate_weighted(entry.client, std::move(entry.update), w);
      total_weight += w;
      ++applied;
      ++stats.stale_applied;
    }
    stale_.clear();
    for (std::size_t slot = 0; slot < participants.size(); ++slot) {
      if (accepted[slot]) {
        aggregator_.accumulate_weighted(participants[slot],
                                        std::move(outcomes_[slot]), 1.0);
        total_weight += 1.0;
        ++applied;
      } else if (late[slot]) {
        stale_.push_back(
            StaleUpdate{participants[slot], 0, std::move(outcomes_[slot])});
        ++stats.buffered;
      }
    }
    if (applied > 0) aggregator_.commit_weighted(applied, total_weight);
    outcomes_.clear();  // canonical end-of-round state (see reduce())
    return stats;
  }

  double evaluate() override { return learner_.evaluate(); }

  void save_update(std::size_t slot, util::SnapshotWriter& w) override {
    FHDNN_CHECK(slot < outcomes_.size(),
                "save_update slot " << slot << " outside the cohort of "
                                    << outcomes_.size());
    UpdateSnapshotCodec<Update>::save(w, outcomes_[slot]);
  }

  void load_update(std::size_t slot, util::SnapshotReader& r) override {
    FHDNN_CHECK(slot < outcomes_.size(),
                "load_update slot " << slot << " outside the cohort of "
                                    << outcomes_.size());
    outcomes_[slot] = UpdateSnapshotCodec<Update>::load(r);
  }

  void save_state(util::SnapshotWriter& w) override {
    w.write_u64(outcomes_.size());
    for (const Update& u : outcomes_) {
      UpdateSnapshotCodec<Update>::save(w, u);
    }
    w.write_u64(stale_.size());
    for (const StaleUpdate& s : stale_) {
      w.write_u64(static_cast<std::uint64_t>(s.client));
      w.write_i64(s.staleness);
      UpdateSnapshotCodec<Update>::save(w, s.update);
    }
    learner_.save_state(w);
    aggregator_.save_state(w);
  }

  void load_state(util::SnapshotReader& r) override {
    const auto n = static_cast<std::size_t>(r.read_u64());
    outcomes_.clear();
    outcomes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      outcomes_.push_back(UpdateSnapshotCodec<Update>::load(r));
    }
    const auto n_stale = static_cast<std::size_t>(r.read_u64());
    stale_.clear();
    stale_.reserve(n_stale);
    for (std::size_t i = 0; i < n_stale; ++i) {
      StaleUpdate s;
      s.client = static_cast<std::size_t>(r.read_u64());
      s.staleness = static_cast<int>(r.read_i64());
      s.update = UpdateSnapshotCodec<Update>::load(r);
      stale_.push_back(std::move(s));
    }
    learner_.load_state(r);
    aggregator_.load_state(r);
  }

 private:
  struct StaleUpdate {
    std::size_t client = 0;
    int staleness = 0;  ///< rounds since arrival (0 = arrived this round)
    Update update{};
  };

  LocalLearner<Update>& learner_;
  channel::Transport<Update>& transport_;
  Aggregator<Update>& aggregator_;
  std::vector<Update> outcomes_;
  std::vector<StaleUpdate> stale_;  ///< cross-round buffered-async backlog
};

/// The execution seam between the aggregation core and whoever runs the
/// round's client work. After the engine's serial prologue (participant
/// sampling, delivery coins, begin_round), drive() must train every
/// participant slot that needs work and fill `reports` — either in process
/// (LocalRoundDriver, the default) or by fanning slots out to connected
/// workers (fl/serving.hpp's ServerRoundDriver). The engine then runs the
/// acceptance/reduction epilogue unchanged, which is why both drivers
/// produce bit-identical histories: the reduction consumes per-slot state
/// in fixed slot order regardless of who computed it, or where.
class RoundDriver {
 public:
  virtual ~RoundDriver() = default;

  /// Run the round's client work. `participants[slot]` is the client id,
  /// `delivered[slot]` its pre-drawn delivery coin, `awake` the population
  /// availability flags (empty when population mode is off — treat every
  /// slot as awake). Must fill `reports[slot]` for every slot it runs and
  /// leave the protocol's retained updates installed for delivered slots.
  virtual void drive(RoundProtocol& protocol, const Rng& round_rng,
                     int round_index,
                     const std::vector<std::size_t>& participants,
                     const std::vector<char>& delivered,
                     const std::vector<char>& awake,
                     std::vector<ClientReport>& reports) = 0;

  /// Called after the round's metrics commit (post-reduce, post-eval);
  /// server drivers broadcast the ack/metrics message here. Default: no-op.
  virtual void round_committed(const RoundMetrics& metrics) { (void)metrics; }
};

/// Default in-process driver: client-parallel local updates on the
/// util/parallel pool, workspace arena reset at each client batch — the
/// engine's historical behavior, bit for bit. Non-delivered slots still
/// train (they paid the compute in the real world; only their uplink is
/// lost), asleep slots are skipped entirely.
class LocalRoundDriver final : public RoundDriver {
 public:
  void drive(RoundProtocol& protocol, const Rng& round_rng, int round_index,
             const std::vector<std::size_t>& participants,
             const std::vector<char>& delivered, const std::vector<char>& awake,
             std::vector<ClientReport>& reports) override;
};

/// Deadline-based round policy (paper §4.4's timing model driving the
/// acceptance decision instead of only post-hoc reporting). When enabled,
/// the engine over-selects ceil(C*N*(1+over_selection)) participants,
/// derives a per-round deadline from the FlTimeline nominal round duration
/// (device compute + one configured-size LTE upload), simulates every
/// delivered participant's round time from its *measured* transport stats
/// (so ARQ retransmissions and backoff lengthen it), and accepts the first
/// clients_per_round() deliveries that finish within the deadline. Later
/// deliveries are discarded — their traffic stays charged, they count as
/// RoundMetrics::timed_out — which is how a synchronous server degrades
/// gracefully instead of stalling on stragglers and retransmit storms.
struct DeadlineConfig {
  bool enabled = false;
  /// Device / LTE model the deadline and per-client times come from;
  /// timeline.update_bits must be set when enabled.
  TimelineConfig timeline;
  double over_selection = 0.25;  ///< eps: extra participants sampled
  double deadline_factor = 1.5;  ///< deadline = factor * nominal round time
};

/// Buffered-async acceptance (FedBuff-style). The round boundary is the
/// clients_per_round()-th upload arrival instead of a deadline: the
/// server aggregates as soon as its buffer fills, and anything still in
/// flight lands in a later round's aggregate, down-weighted by how many
/// rounds it missed.
/// Mutually exclusive with DeadlineConfig.
struct AsyncConfig {
  bool enabled = false;
  /// Device / LTE model the event times come from; timeline.update_bits
  /// must be set when enabled.
  TimelineConfig timeline;
  double over_selection = 0.25;     ///< eps: extra participants sampled
  double staleness_exponent = 0.5;  ///< weight = (1+staleness)^-exponent
  int max_staleness = 2;            ///< buffered rounds before expiry
};

/// Crash-consistent checkpointing (DESIGN.md §13). When `path` is set the
/// engine commits a snapshot there after every completed round, and — when
/// `every_n_events` > 0 — additionally after every Nth processed discrete
/// event, so a killed aggregator resumes mid-round. Each commit is atomic
/// and rotates the prior generation to `<path>.prev` for torn-write
/// fallback.
struct CheckpointConfig {
  std::string path;                   ///< empty disables checkpointing
  std::uint64_t every_n_events = 0;   ///< 0: round boundaries only
  bool enabled() const { return !path.empty(); }
};

/// Engine knobs shared by every federated protocol (paper notation).
struct EngineConfig {
  std::size_t n_clients = 0;
  double client_fraction = 0.1;  ///< C
  int rounds = 1;
  int eval_every = 1;            ///< evaluate test accuracy every k rounds
  double dropout_prob = 0.0;     ///< per-participant delivery failure
  std::uint64_t seed = 1;
  std::string name = "engine";   ///< log prefix ("fedavg", "fedhd", ...)
  FaultConfig faults;            ///< per-client fault injection (off by default)
  DeadlineConfig deadline;       ///< deadline-based rounds (off by default)
  /// Sparse registered-client fleet (off by default). When enabled,
  /// n_clients is ignored for sampling: participants are drawn from
  /// population.n_registered ids, and client_fraction applies to the
  /// registered count. Requires deadline or async mode (availability
  /// windows need a simulated clock).
  PopulationConfig population;
  AsyncConfig async;             ///< buffered-async rounds (off by default)
  CheckpointConfig checkpoint;   ///< crash-consistent snapshots (off by default)
  /// Injected aggregator kill for crash-recovery testing (off by default).
  CrashPlan crash;
};

/// The shared synchronous round loop. See the file header for the seam
/// split and the determinism contract.
class RoundEngine {
 public:
  /// `protocol` must outlive the engine.
  RoundEngine(EngineConfig config, RoundProtocol& protocol);

  /// Execute one round. Does not append to history(); run() does.
  RoundMetrics round(int round_index);

  /// Run all configured rounds, appending each to history().
  TrainingHistory run();

  const TrainingHistory& history() const { return history_; }

  /// The per-client fault layer (disabled when config.faults is all-off).
  /// Trainers install faults().error_scales() into their transports.
  const FaultModel& faults() const { return faults_; }

  /// Per-round acceptance deadline in simulated seconds; 0 when deadline
  /// rounds are disabled.
  double deadline_seconds() const;

  /// The sparse registered fleet, when population mode is on.
  const ClientPopulation* population() const {
    return population_ ? &*population_ : nullptr;
  }

  /// Discrete events processed across the whole run so far (cumulative
  /// over rounds — the counter CrashPlan::at_event and
  /// CheckpointConfig::every_n_events are expressed in).
  // fhdnn-lint: allow(test-only-api) the crash sweep walks every event
  std::uint64_t total_events() const { return total_events_; }

  /// Commit a snapshot of the engine's full deterministic state to `path`
  /// (atomic; rotates the prior generation to `<path>.prev`). Captures
  /// mid-round state when called between events of a timed round.
  void checkpoint(const std::string& path);

  /// Route the round's client work through a custom driver (fl/serving.hpp
  /// ServerRoundDriver); nullptr restores the in-process LocalRoundDriver.
  /// The driver must outlive the engine (or be reset first).
  void set_round_driver(RoundDriver* driver) { driver_ = driver; }

  /// CRC-32 over the determinism-relevant config knobs; stored in snapshot
  /// META chunks and exchanged in the fhdnnd hello handshake, so neither a
  /// resume nor a worker ever silently runs a different experiment.
  std::uint32_t config_fingerprint() const;

  /// Restore a snapshot written by checkpoint() / automatic checkpointing.
  /// Tries `path` first, then `<path>.prev` (torn-write fallback). The
  /// engine must be freshly constructed with the SAME config (fingerprint
  /// checked) — afterwards run() continues from the snapshot and produces
  /// a history bit-identical to the uninterrupted run. Throws
  /// util::DecodeError when no generation validates or the config does
  /// not match.
  void resume(const std::string& path);

 private:
  /// Everything the event-acceptance loop of a timed round has decided so
  /// far. Populated by the serial+parallel round prologue, consumed by the
  /// post-loop reduction; snapshotting it between two events is what makes
  /// mid-round resume possible. The prologue-only intermediates (awake
  /// flags, jitter draws) are deliberately absent: they are fully spent by
  /// the time the first event pops.
  struct PendingRound {
    bool active = false;
    int round_index = 0;
    std::vector<std::size_t> participants;
    std::vector<char> delivered;
    std::vector<ClientReport> reports;
    std::vector<char> accepted;
    std::vector<char> late;
    bool deadline_passed = false;
    std::size_t taken = 0;
    std::size_t arrivals = 0;
    double last_accept = 0.0;
    double last_arrival = 0.0;
  };

  void save_snapshot(util::SnapshotWriter& w);
  void write_checkpoint();

  EngineConfig config_;
  RoundProtocol& protocol_;
  LocalRoundDriver local_driver_;
  RoundDriver* driver_ = nullptr;  ///< null: use local_driver_
  Rng root_rng_;
  ClientSampler sampler_;
  FaultModel faults_;
  std::optional<FlTimeline> timeline_;
  std::optional<ClientPopulation> population_;
  EventQueue events_;
  double sim_now_ = 0.0;
  TrainingHistory history_;
  PendingRound pending_;
  std::uint64_t total_events_ = 0;
};

}  // namespace fhdnn::fl
