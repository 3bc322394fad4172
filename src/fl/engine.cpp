#include "fl/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/workspace.hpp"

namespace fhdnn::fl {

void UpdateSnapshotCodec<std::vector<float>>::save(util::SnapshotWriter& w,
                                                   const std::vector<float>& u) {
  w.write_floats(u);
}

std::vector<float> UpdateSnapshotCodec<std::vector<float>>::load(
    util::SnapshotReader& r) {
  return r.read_floats();
}

void UpdateSnapshotCodec<Tensor>::save(util::SnapshotWriter& w,
                                       const Tensor& u) {
  // Moved-from / never-filled slots carry the default (rank-0) tensor;
  // write a presence flag so load() restores exactly that.
  const bool present = u.ndim() > 0;
  w.write_u8(present ? 1 : 0);
  if (!present) return;
  w.write_u64(static_cast<std::uint64_t>(u.ndim()));
  for (std::int64_t d = 0; d < u.ndim(); ++d) {
    w.write_i64(u.dim(d));
  }
  w.write_floats(u.vec());
}

Tensor UpdateSnapshotCodec<Tensor>::load(util::SnapshotReader& r) {
  // Served FedHd updates arrive from workers, so every field is checked
  // before it sizes an allocation or reaches the Tensor constructor.
  const auto fail = [](std::size_t at, const std::string& what) {
    throw util::DecodeError(util::DecodeErrorKind::kSchema, at,
                            "tensor update: " + what);
  };
  std::size_t at = r.offset();
  const std::uint8_t present = r.read_u8();
  if (present > 1) {
    fail(at, "presence flag " + std::to_string(present) + " is not 0 or 1");
  }
  if (present == 0) return Tensor{};
  at = r.offset();
  const std::uint64_t ndim = r.read_u64();
  if (ndim == 0 || ndim > 8) {
    fail(at, "implausible rank " + std::to_string(ndim));
  }
  Shape shape(static_cast<std::size_t>(ndim));
  std::uint64_t numel = 1;  // saturates instead of wrapping
  for (auto& d : shape) {
    at = r.offset();
    d = r.read_i64();
    if (d <= 0 || d >= (std::int64_t{1} << 40)) {
      fail(at, "implausible dim " + std::to_string(d));
    }
    const auto ud = static_cast<std::uint64_t>(d);
    numel = numel > std::numeric_limits<std::uint64_t>::max() / ud
                ? std::numeric_limits<std::uint64_t>::max()
                : numel * ud;
  }
  at = r.offset();
  std::vector<float> values = r.read_floats();
  if (values.size() != numel) {
    fail(at, "shape holds " + std::to_string(numel) + " elements but " +
                 std::to_string(values.size()) + " floats follow");
  }
  Tensor t(std::move(shape), std::move(values));
  t.assert_invariant();
  return t;
}

void LocalRoundDriver::drive(RoundProtocol& protocol, const Rng& round_rng,
                             int round_index,
                             const std::vector<std::size_t>& participants,
                             const std::vector<char>& delivered,
                             const std::vector<char>& awake,
                             std::vector<ClientReport>& reports) {
  (void)round_index;
  (void)delivered;  // non-delivered slots still train; run_client handles it
  const std::size_t n = participants.size();
  const bool pop_on = !awake.empty();
  parallel::parallel_for(
      0, static_cast<std::int64_t>(n), 1,
      [&](std::int64_t i0, std::int64_t i1) {
        // Coalesce this worker's arena into one block before the batch
        // of clients; scratch is then bump-allocated with no heap
        // traffic.
        util::tls_workspace().reset();
        for (std::int64_t i = i0; i < i1; ++i) {
          const auto slot = static_cast<std::size_t>(i);
          if (pop_on && !awake[slot]) continue;  // asleep: no local work
          reports[slot] = protocol.run_client(slot, participants[slot],
                                              round_rng,
                                              delivered[slot] != 0);
          // Client boundary: every kernel/layer Scope opened while
          // running this client must have closed again (DESIGN.md
          // §9/§10).
          FHDNN_CHECKED_ASSERT(
              util::tls_workspace().scope_depth() == 0,
              "workspace Scope leaked across client " << participants[slot]
                                                      << " boundary");
        }
      });
}

RoundEngine::RoundEngine(EngineConfig config, RoundProtocol& protocol)
    : config_(std::move(config)),
      protocol_(protocol),
      root_rng_(config_.seed),
      sampler_(config_.population.enabled() ? config_.population.n_registered
                                            : config_.n_clients,
               config_.client_fraction),
      faults_(config_.faults, config_.n_clients, root_rng_.fork("faults")) {
  // Contract builds refuse to start training in an FP environment that
  // cannot reproduce the golden histories (FTZ/DAZ/non-nearest rounding).
  util::checked_startup();
  FHDNN_CHECK(config_.rounds > 0, "engine rounds " << config_.rounds);
  FHDNN_CHECK(config_.dropout_prob >= 0.0 && config_.dropout_prob < 1.0,
              "dropout_prob " << config_.dropout_prob);
  FHDNN_CHECK(!(config_.deadline.enabled && config_.async.enabled),
              "deadline and buffered-async rounds are mutually exclusive");
  if (config_.deadline.enabled) {
    FHDNN_CHECK(config_.deadline.over_selection >= 0.0,
                "deadline over_selection " << config_.deadline.over_selection);
    FHDNN_CHECK(config_.deadline.deadline_factor > 0.0,
                "deadline_factor " << config_.deadline.deadline_factor);
    config_.deadline.timeline.link.validate();
    timeline_.emplace(config_.deadline.timeline);
  } else if (config_.async.enabled) {
    FHDNN_CHECK(config_.async.over_selection >= 0.0,
                "async over_selection " << config_.async.over_selection);
    FHDNN_CHECK(config_.async.staleness_exponent >= 0.0,
                "staleness_exponent " << config_.async.staleness_exponent);
    FHDNN_CHECK(config_.async.max_staleness >= 0,
                "max_staleness " << config_.async.max_staleness);
    config_.async.timeline.link.validate();
    timeline_.emplace(config_.async.timeline);
  }
  if (config_.population.enabled()) {
    // Availability windows are predicates on simulated time, so the sparse
    // fleet only makes sense under a timed acceptance mode.
    FHDNN_CHECK(timeline_.has_value(),
                "population mode requires deadline or async rounds");
    population_.emplace(config_.population, root_rng_);
  }
}

double RoundEngine::deadline_seconds() const {
  if (!config_.deadline.enabled || !timeline_) return 0.0;
  return config_.deadline.deadline_factor * timeline_->nominal_round_seconds();
}

RoundMetrics RoundEngine::round(int round_index) {
  // Wall-clock measurement for RoundMetrics::wall_seconds — the one field
  // outside the simulated-time contract, and the one sanctioned wall-clock
  // read in src/fl/ (everything else runs on the event clock).
  // fhdnn-lint: allow(sim-clock, det-effects)
  const auto start = std::chrono::steady_clock::now();

  // Timed rounds over-select so late/faulty participants can be replaced
  // by faster ones without shrinking the effective round size.
  const bool deadline_on = config_.deadline.enabled;
  const bool async_on = config_.async.enabled;
  const bool timed = timeline_.has_value();
  const bool pop_on = population_.has_value();
  const std::size_t target = sampler_.clients_per_round();

  if (pending_.active) {
    // Mid-round resume: the prologue below (sampling, local training,
    // transport, event scheduling) ran before the snapshot was taken; only
    // the event loop and the serial epilogue remain. Everything they need
    // lives in pending_, the restored event queue, and the protocol state.
    FHDNN_CHECK(pending_.round_index == round_index,
                "pending round " << pending_.round_index << " != requested "
                                 << round_index);
  } else {
    Rng round_rng = root_rng_.fork("round-" + std::to_string(round_index));
    Rng sample_rng = round_rng.fork("sample");
    std::size_t draw = target;
    if (deadline_on) {
      draw = static_cast<std::size_t>(
          std::ceil(static_cast<double>(target) *
                    (1.0 + config_.deadline.over_selection)));
    } else if (async_on) {
      draw = static_cast<std::size_t>(
          std::ceil(static_cast<double>(target) *
                    (1.0 + config_.async.over_selection)));
    }
    pending_ = PendingRound{};
    pending_.active = true;
    pending_.round_index = round_index;
    pending_.participants = pop_on ? population_->sample(sample_rng, draw)
                                   : sampler_.sample(sample_rng, draw);
    const std::size_t n = pending_.participants.size();
    const auto& participants = pending_.participants;

    // Serial prologue: the protocol refreshes the broadcast copy clients
    // start from and sizes its per-slot update buffer.
    protocol_.begin_round(round_rng, n);

    // Pre-draw delivery outcomes in participant order so the dropout
    // stream never depends on client execution order; fault-layer crashes
    // and outage windows fold in as additional delivery failures (both are
    // pure functions of (client, round), so the fold is order-independent
    // too).
    Rng dropout_rng = round_rng.fork("dropout");
    pending_.delivered =
        draw_delivery_flags(n, config_.dropout_prob, dropout_rng);
    if (faults_.enabled()) {
      for (std::size_t slot = 0; slot < n; ++slot) {
        if (pending_.delivered[slot] &&
            !faults_.available(participants[slot], round_index)) {
          pending_.delivered[slot] = 0;
        }
      }
    }

    // Sparse population: a sampled client asleep at round start (its
    // availability window is a pure function of (seed, id, sim clock))
    // never trains and never reaches the channel — it just counts dropped.
    // This is also what bounds per-round work by the awake cohort.
    std::vector<char> awake;
    if (pop_on) {
      awake.assign(n, 1);
      for (std::size_t slot = 0; slot < n; ++slot) {
        if (!population_->available_at(participants[slot], sim_now_)) {
          awake[slot] = 0;
          pending_.delivered[slot] = 0;
        }
      }
    }

    // Timed rounds: pre-draw per-slot compute jitter serially in slot
    // order, same contract as the dropout coins. Spent entirely on event
    // scheduling below, so it never needs to survive a checkpoint.
    std::vector<double> jitter;
    if (timed) {
      Rng jitter_rng = round_rng.fork("jitter");
      const double j = timeline_->config().compute_jitter;
      jitter.resize(n, 1.0);
      for (auto& factor : jitter) factor = 1.0 + jitter_rng.uniform(-j, j);
    }

    // Client work through the driver seam: in process (LocalRoundDriver,
    // client-parallel on the util/parallel pool) or fanned out to connected
    // workers (ServerRoundDriver). Each client draws only from named forks
    // of the round stream; global state is read-only until the serial
    // reduction below — so who executes a slot never changes its update.
    pending_.reports.assign(n, ClientReport{});
    RoundDriver& driver = driver_ ? *driver_ : local_driver_;
    driver.drive(protocol_, round_rng, round_index, participants,
                 pending_.delivered, awake, pending_.reports);

    // Schedule the round's events (timed modes): each delivered
    // participant posts its kTrainDone and kUploadArrival instants, and a
    // deadline round posts its kDeadline sentinel.
    pending_.accepted = pending_.delivered;
    pending_.late.assign(n, 0);
    if (timed) {
      events_.clear(0.0);
      for (std::size_t slot = 0; slot < n; ++slot) {
        if (!pending_.delivered[slot]) continue;
        double slowdown = faults_.slowdown(participants[slot]);
        double link_factor = 1.0;
        if (pop_on) {
          const ClientProfile prof = population_->profile(participants[slot]);
          slowdown *= prof.compute_factor;
          link_factor = prof.link_factor;
        }
        const double train_done =
            timeline_->client_compute_seconds(slowdown, jitter[slot]);
        // Dense mode reuses client_round_seconds wholesale so the arrival
        // instant is the exact double the pre-event acceptance sorted on.
        const double arrival =
            pop_on ? train_done + timeline_->client_upload_seconds(
                                      pending_.reports[slot].stats,
                                      link_factor)
                   : timeline_->client_round_seconds(
                         pending_.reports[slot].stats, slowdown, jitter[slot]);
        events_.push(Event{train_done, participants[slot], 0,
                           EventKind::kTrainDone, slot});
        events_.push(Event{arrival, participants[slot], 1,
                           EventKind::kUploadArrival, slot});
      }
      if (deadline_on) {
        events_.push(Event{deadline_seconds(),
                           std::numeric_limits<std::size_t>::max(), 0,
                           EventKind::kDeadline, 0});
      }
      std::fill(pending_.accepted.begin(), pending_.accepted.end(), 0);
    }
  }

  const std::size_t n = pending_.participants.size();
  RoundMetrics metrics;
  metrics.round = round_index;
  metrics.sampled = n;

  // Discrete-event acceptance (timed modes). The server replays the queue
  // in the deterministic (time, client, seq) order and decides acceptance
  // event by event:
  //   * deadline rounds — accept arrivals until the deadline event fires
  //     or `target` are in; bit-identical to the pre-event sort-based
  //     acceptance (the kDeadline event carries client = SIZE_MAX, so an
  //     arrival exactly at the deadline still pops first, matching the
  //     old `seconds <= deadline` rule; ties among arrivals break by
  //     client id, which equals the old slot-order tie-break because
  //     participants are sorted).
  //   * buffered-async rounds — the Kth arrival closes the round; later
  //     arrivals are marked late and handed to the protocol's staleness
  //     buffer instead of being discarded.
  // Every pop is a crash-consistency boundary: a due checkpoint commits
  // first, then a due CrashPlan fires — so a run killed at event k resumes
  // from a snapshot at (or deterministically before) k.
  double simulated_seconds = 0.0;
  if (timed) {
    while (!events_.empty()) {
      const Event e = events_.pop();
      if (e.kind == EventKind::kDeadline) {
        pending_.deadline_passed = true;
      } else if (e.kind == EventKind::kUploadArrival) {
        ++pending_.arrivals;
        pending_.last_arrival = e.time;
        if (!pending_.deadline_passed && pending_.taken < target) {
          pending_.accepted[e.slot] = 1;
          pending_.last_accept = e.time;
          ++pending_.taken;
        } else if (async_on) {
          pending_.late[e.slot] = 1;
        }
      }
      ++total_events_;
      if (config_.checkpoint.enabled() &&
          config_.checkpoint.every_n_events > 0 &&
          total_events_ % config_.checkpoint.every_n_events == 0) {
        write_checkpoint();
      }
      if (config_.crash.enabled && total_events_ == config_.crash.at_event) {
        throw AggregatorCrash(total_events_);
      }
    }
    metrics.events = events_.processed();
    if (deadline_on) {
      // The round ends the moment the server has its target count of
      // updates; short rounds wait out the full deadline.
      simulated_seconds = (pending_.taken == target)
                              ? pending_.last_accept
                              : deadline_seconds();
    } else {
      // Async: the buffer filling closes the round; a round whose arrivals
      // all fit under the cap ends at the final arrival, and a round with
      // no arrivals at all idles for one nominal round.
      simulated_seconds =
          pending_.arrivals == 0
              ? timeline_->nominal_round_seconds()
              : (pending_.taken == target ? pending_.last_accept
                                                : pending_.last_arrival);
    }
  }

  // Serial accounting in fixed participant order. Traffic is charged for
  // everything that went on the air (accepted, buffered late, or timed
  // out); loss averages over the accepted participants only — they are
  // the round's effective cohort.
  double loss_total = 0.0;
  std::size_t delivered = 0;
  std::size_t accepted_n = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!pending_.delivered[slot]) continue;
    ++delivered;
    const auto& stats = pending_.reports[slot].stats;
    metrics.bytes_uplink += stats.payload_bytes;
    metrics.bits_on_air += stats.bits_on_air;
    metrics.bit_flips += stats.bit_flips;
    metrics.packets_lost += stats.packets_lost;
    metrics.retransmissions += stats.retransmissions;
    metrics.residual_errors += stats.residual_errors;
    if (pending_.accepted[slot]) {
      ++accepted_n;
      loss_total += pending_.reports[slot].loss;
    }
  }
  if (async_on) {
    const auto async_stats = protocol_.reduce_async(
        pending_.participants, pending_.accepted, pending_.late,
        config_.async.staleness_exponent, config_.async.max_staleness);
    metrics.stale_accepted = async_stats.stale_applied;
  } else {
    protocol_.reduce(pending_.participants, pending_.accepted);
  }
  pending_ = PendingRound{};  // round committed; nothing mid-round remains

  metrics.clients = accepted_n;
  metrics.dropped = n - delivered;
  metrics.timed_out = delivered - accepted_n;
  metrics.simulated_round_seconds = simulated_seconds;
  sim_now_ += simulated_seconds;
  metrics.train_loss =
      accepted_n ? loss_total / static_cast<double>(accepted_n) : 0.0;
  // The documented RoundMetrics invariant, enforced at round commit:
  // every sampled participant is accounted exactly once.
  FHDNN_CHECKED_ASSERT(
      metrics.clients + metrics.dropped + metrics.timed_out == metrics.sampled,
      "round accounting: clients " << metrics.clients << " + dropped "
                                   << metrics.dropped << " + timed_out "
                                   << metrics.timed_out << " != sampled "
                                   << metrics.sampled);
  if (round_index % std::max(1, config_.eval_every) == 0 ||
      round_index == config_.rounds) {
    metrics.test_accuracy = protocol_.evaluate();
  } else {
    metrics.test_accuracy =
        history_.empty() ? 0.0 : history_.rounds().back().test_accuracy;
  }
  // fhdnn-lint: allow(sim-clock, det-effects)
  const auto wall_end = std::chrono::steady_clock::now();
  metrics.wall_seconds = std::chrono::duration<double>(wall_end - start).count();
  // Ack/metrics hook: server drivers broadcast the committed round to their
  // workers; the in-process driver ignores it.
  RoundDriver& driver = driver_ ? *driver_ : local_driver_;
  driver.round_committed(metrics);
  return metrics;
}

TrainingHistory RoundEngine::run() {
  // history_.size() rounds are already committed (zero on a fresh engine,
  // more after resume()); continue from the next one.
  for (int r = static_cast<int>(history_.size()) + 1; r <= config_.rounds;
       ++r) {
    const RoundMetrics m = round(r);
    history_.add(m);
    if (config_.checkpoint.enabled()) {
      // Round-boundary checkpoint: a crash between rounds resumes here.
      write_checkpoint();
    }
    log_debug() << config_.name << " round " << r << " acc=" << m.test_accuracy
                << " loss=" << m.train_loss << " accepted=" << m.clients << "/"
                << m.sampled << " (dropped=" << m.dropped
                << " timed_out=" << m.timed_out << ") wall=" << m.wall_seconds
                << "s";
  }
  return history_;
}

std::uint32_t RoundEngine::config_fingerprint() const {
  // Canonical serialization of every knob the deterministic trajectory
  // depends on. FaultModel / ClientPopulation / FlTimeline / ClientSampler
  // are pure in (seed, config), so fingerprinting the config covers them —
  // no derived tables need snapshotting.
  util::ByteWriter w;
  const EngineConfig& c = config_;
  w.write_u64(c.n_clients);
  w.write_f64(c.client_fraction);
  w.write_u64(static_cast<std::uint64_t>(c.rounds));
  w.write_u64(static_cast<std::uint64_t>(c.eval_every));
  w.write_f64(c.dropout_prob);
  w.write_u64(c.seed);
  w.write_raw(c.name.data(), c.name.size());
  w.write_f64(c.faults.crash_prob);
  w.write_f64(c.faults.straggler_fraction);
  w.write_f64(c.faults.straggler_slowdown);
  w.write_f64(c.faults.outage_prob);
  w.write_u64(static_cast<std::uint64_t>(c.faults.outage_rounds));
  w.write_f64(c.faults.error_multiplier_max);
  w.write_u64(c.deadline.enabled ? 1 : 0);
  w.write_f64(c.deadline.over_selection);
  w.write_f64(c.deadline.deadline_factor);
  w.write_u64(c.deadline.timeline.update_bits);
  w.write_u64(c.deadline.timeline.fhdnn ? 1 : 0);
  w.write_f64(c.deadline.timeline.compute_jitter);
  w.write_u64(c.async.enabled ? 1 : 0);
  w.write_f64(c.async.over_selection);
  w.write_f64(c.async.staleness_exponent);
  w.write_u64(static_cast<std::uint64_t>(c.async.max_staleness));
  w.write_u64(c.async.timeline.update_bits);
  w.write_u64(c.async.timeline.fhdnn ? 1 : 0);
  w.write_f64(c.async.timeline.compute_jitter);
  w.write_u64(c.population.n_registered);
  w.write_f64(c.population.mean_availability);
  w.write_f64(c.population.window_seconds);
  w.write_f64(c.population.straggler_fraction);
  w.write_f64(c.population.straggler_slowdown);
  w.write_f64(c.population.compute_spread);
  w.write_f64(c.population.link_spread_max);
  // One derived double folds the device/link/workload profiles in without
  // enumerating every field of the active timeline.
  w.write_f64(timeline_ ? timeline_->nominal_round_seconds() : 0.0);
  return util::crc32(w.data(), w.size());
}

void RoundEngine::save_snapshot(util::SnapshotWriter& w) {
  w.begin_chunk("META");
  w.write_u32(config_fingerprint());
  w.write_u8(pending_.active ? 1 : 0);
  w.write_i64(pending_.active
                  ? static_cast<std::int64_t>(pending_.round_index)
                  : static_cast<std::int64_t>(history_.size()));
  w.write_u64(total_events_);
  w.end_chunk();

  w.begin_chunk("RNGS");
  put_rng_state(w, root_rng_.state());
  w.end_chunk();

  w.begin_chunk("CLCK");
  w.write_f64(sim_now_);
  w.end_chunk();

  w.begin_chunk("HIST");
  history_.save(w);
  w.end_chunk();

  w.begin_chunk("PROT");
  protocol_.save_state(w);
  w.end_chunk();

  if (pending_.active) {
    w.begin_chunk("PEND");
    w.write_i64(pending_.round_index);
    w.write_sizes(pending_.participants);
    w.write_flags(pending_.delivered);
    w.write_u64(pending_.reports.size());
    for (const ClientReport& rep : pending_.reports) {
      w.write_f64(rep.loss);
      channel::put_transport_stats(w, rep.stats);
    }
    w.write_flags(pending_.accepted);
    w.write_flags(pending_.late);
    w.write_u8(pending_.deadline_passed ? 1 : 0);
    w.write_u64(pending_.taken);
    w.write_u64(pending_.arrivals);
    w.write_f64(pending_.last_accept);
    w.write_f64(pending_.last_arrival);
    w.end_chunk();

    w.begin_chunk("EVTQ");
    events_.save(w);
    w.end_chunk();
  }
}

void RoundEngine::write_checkpoint() { checkpoint(config_.checkpoint.path); }

void RoundEngine::checkpoint(const std::string& path) {
  FHDNN_CHECK(!path.empty(), "checkpoint path is empty");
  util::SnapshotWriter w;
  save_snapshot(w);
  w.commit(path);
}

void RoundEngine::resume(const std::string& path) {
  util::SnapshotReader r = util::SnapshotReader::open_with_fallback(path);

  r.enter_chunk("META");
  const std::uint32_t fingerprint = r.read_u32();
  if (fingerprint != config_fingerprint()) {
    throw util::DecodeError(
        util::DecodeErrorKind::kSchema, 0,
        "snapshot was written under a different engine config (" +
            r.source_path() + ")");
  }
  const bool mid_round = r.read_u8() != 0;
  const std::int64_t snap_round = r.read_i64();
  total_events_ = r.read_u64();
  r.leave_chunk();

  r.enter_chunk("RNGS");
  root_rng_.set_state(get_rng_state(r));
  r.leave_chunk();

  r.enter_chunk("CLCK");
  sim_now_ = r.read_f64();
  r.leave_chunk();

  r.enter_chunk("HIST");
  history_.load(r);
  r.leave_chunk();

  r.enter_chunk("PROT");
  protocol_.load_state(r);
  r.leave_chunk();

  pending_ = PendingRound{};
  if (mid_round) {
    r.enter_chunk("PEND");
    pending_.active = true;
    pending_.round_index = static_cast<int>(r.read_i64());
    pending_.participants = r.read_sizes();
    pending_.delivered = r.read_flags();
    const auto n_reports = static_cast<std::size_t>(r.read_u64());
    pending_.reports.assign(n_reports, ClientReport{});
    for (ClientReport& rep : pending_.reports) {
      rep.loss = r.read_f64();
      rep.stats = channel::get_transport_stats(r);
    }
    pending_.accepted = r.read_flags();
    pending_.late = r.read_flags();
    pending_.deadline_passed = r.read_u8() != 0;
    pending_.taken = static_cast<std::size_t>(r.read_u64());
    pending_.arrivals = static_cast<std::size_t>(r.read_u64());
    pending_.last_accept = r.read_f64();
    pending_.last_arrival = r.read_f64();
    r.leave_chunk();

    const std::size_t n = pending_.participants.size();
    FHDNN_CHECK(pending_.round_index == static_cast<int>(snap_round) &&
                    pending_.delivered.size() == n &&
                    pending_.reports.size() == n &&
                    pending_.accepted.size() == n && pending_.late.size() == n,
                "snapshot pending-round state is inconsistent");
    FHDNN_CHECK(pending_.round_index == static_cast<int>(history_.size()) + 1,
                "snapshot pending round " << pending_.round_index
                                          << " does not follow its history of "
                                          << history_.size() << " rounds");
    FHDNN_CHECK(timeline_.has_value(),
                "mid-round snapshot requires a timed engine config");

    r.enter_chunk("EVTQ");
    events_.load(r);
    r.leave_chunk();
  } else {
    FHDNN_CHECK(snap_round == static_cast<std::int64_t>(history_.size()),
                "snapshot round index " << snap_round
                                        << " != restored history size "
                                        << history_.size());
  }
  r.enter_chunk("END ");
  r.leave_chunk();
}

}  // namespace fhdnn::fl
