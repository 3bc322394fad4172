// Per-client fault injection for federated rounds.
//
// Real AIoT fleets fail in ways the plain dropout coin cannot express:
// clients crash mid-round, some devices are persistently slow (stragglers),
// links go down for stretches of rounds (outages), and link quality varies
// per client (a device at the cell edge sees a higher BER than one next to
// the base station). FaultModel draws all of these from named forks of its
// own root stream, so fault outcomes are deterministic in (seed, client,
// round), independent of client execution order and thread count — the
// engine's determinism contract (DESIGN.md §6) extends to the fault layer.
//
// Static traits (straggler slowdown, link-quality multiplier) are drawn
// once per client at construction; dynamic events (crash, outage windows)
// are pure functions of (client, round) computed from order-independent
// forks, so any caller may query any round at any time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "util/rng.hpp"

namespace fhdnn::fl {

/// Fault injection for the *aggregator itself*: kill the engine after it
/// has processed `at_event` discrete events (1-based, cumulative across
/// rounds — the same counter RoundEngine::total_events() reports). The
/// engine throws AggregatorCrash at that boundary, after any checkpoint
/// due at the same boundary has been committed; tests sweep `at_event`
/// over every boundary and assert resumed runs match the golden history.
struct CrashPlan {
  bool enabled = false;
  std::uint64_t at_event = 0;
};

/// Thrown by RoundEngine when a CrashPlan fires. Deliberately NOT derived
/// from fhdnn::Error: a planned crash is not a contract violation, and
/// callers must be able to catch it specifically.
class AggregatorCrash : public std::exception {
 public:
  explicit AggregatorCrash(std::uint64_t at_event) : at_event_(at_event) {}
  const char* what() const noexcept override {
    return "injected aggregator crash";
  }
  std::uint64_t at_event() const noexcept { return at_event_; }

 private:
  std::uint64_t at_event_;
};

struct FaultConfig {
  /// Per-client per-round probability of crashing after training but before
  /// delivery (power loss, OOM kill). Crashed clients pay local compute but
  /// nothing reaches the server.
  double crash_prob = 0.0;
  /// Fraction of clients that are persistent stragglers, and the factor
  /// their local compute time is multiplied by (>= 1). Only observable
  /// through deadline-based rounds (engine.hpp).
  double straggler_fraction = 0.0;
  double straggler_slowdown = 4.0;
  /// Per-client per-round probability of *entering* an intermittent outage
  /// window; an outage makes the client undeliverable for `outage_rounds`
  /// consecutive rounds (the entering round included).
  double outage_prob = 0.0;
  int outage_rounds = 2;
  /// Per-client link-quality multiplier drawn uniformly from
  /// [1, error_multiplier_max]; channels scale their BER/loss rate up (or
  /// analog SNR down) by it via Channel::apply_scaled. 1.0 disables.
  double error_multiplier_max = 1.0;

  /// True when any fault mechanism is active.
  bool any() const {
    return crash_prob > 0.0 ||
           (straggler_fraction > 0.0 && straggler_slowdown != 1.0) ||
           outage_prob > 0.0 || error_multiplier_max > 1.0;
  }
};

class FaultModel {
 public:
  /// Disabled model: no faults, empty scale table.
  FaultModel() = default;

  /// `root` should be a named fork dedicated to the fault layer (the engine
  /// uses root_rng.fork("faults")); forking it never perturbs the caller.
  FaultModel(FaultConfig config, std::size_t n_clients, const Rng& root);

  bool enabled() const { return enabled_; }
  std::size_t n_clients() const { return slowdown_.size(); }

  /// Static compute-time multiplier of `client` (1.0 = healthy).
  double slowdown(std::size_t client) const;

  /// Static link-quality multiplier of `client` (1.0 = nominal link).
  double error_scale(std::size_t client) const;

  /// The full per-client multiplier table, for
  /// channel::*Transport::set_error_scales. Empty when disabled.
  const std::vector<double>& error_scales() const { return error_scale_; }

  /// Did `client` crash in `round` (1-based)? Pure in (seed, client, round).
  bool crashed(std::size_t client, int round) const;

  /// Is `client` inside an outage window at `round`?
  bool in_outage(std::size_t client, int round) const;

  /// Can `client` deliver an update in `round`? (!crashed && !in_outage)
  bool available(std::size_t client, int round) const;

 private:
  FaultConfig config_;
  Rng root_;
  bool enabled_ = false;
  std::vector<double> slowdown_;
  std::vector<double> error_scale_;
};

}  // namespace fhdnn::fl
