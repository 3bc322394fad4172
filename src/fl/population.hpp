// Sparse million-client population model (DESIGN.md §12).
//
// FHDnn targets AIoT fleets where *millions* of devices are registered
// with the aggregation service but only a few thousand participate in any
// round. Materializing per-client state for the whole fleet (as
// FaultModel's dense trait tables do) caps simulations at hundreds of
// clients. ClientPopulation instead stores O(1) state — a config and one
// forked Rng — and derives every client's profile as a *pure function* of
// (seed, client_id) via `Rng::fork("client-<id>")`. Two calls to
// profile(c) always agree, profiles never depend on query order, and peak
// memory is independent of the registered-population size; only the
// sampled clients of the current round ever hold model state or datasets.
//
// A profile captures the heterogeneity axes the paper's AIoT setting
// cares about:
//   * availability — devices duty-cycle (battery, connectivity, user
//     activity). Each client is awake for a fraction `duty` of its
//     personal period, with a random phase; available_at(c, t) is a pure
//     predicate on simulated time. Duty factors are drawn so the
//     *population mean* equals `mean_availability` (see population.cpp).
//   * compute — stragglers (discrete slowdown tier) plus a continuous
//     per-client compute-speed spread, multiplying local-train seconds.
//   * link quality — a per-client uplink multiplier >= 1 stretching
//     upload seconds (poor RF, congested cells).
//
// Sampling draws k distinct ids from [0, n_registered) in O(k) memory via
// rejection (Rng::sample_without_replacement builds an O(n) index vector,
// which is exactly what this type exists to avoid).
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace fhdnn::fl {

/// Knobs for the sparse population. `n_registered == 0` disables the
/// population model (the engine falls back to dense clients).
struct PopulationConfig {
  std::size_t n_registered = 0;

  /// Mean awake fraction across the fleet, in (0, 1]. 1.0 = always on.
  double mean_availability = 1.0;

  /// Mean duty-cycle period in simulated seconds; each client's own
  /// period is uniform in [0.5, 1.5] of this.
  double window_seconds = 600.0;

  /// Fraction of clients that are stragglers, and their compute
  /// slowdown (mirrors FaultConfig's straggler knobs).
  double straggler_fraction = 0.0;
  double straggler_slowdown = 4.0;

  /// Continuous compute heterogeneity: per-client factor uniform in
  /// [1, 1 + compute_spread].
  double compute_spread = 0.0;

  /// Per-client uplink stretch uniform in [1, link_spread_max].
  double link_spread_max = 1.0;

  bool enabled() const { return n_registered > 0; }
};

/// Everything the engine needs to know about one registered client.
/// Recomputable on demand — never stored fleet-wide.
struct ClientProfile {
  double availability = 1.0;     ///< awake duty fraction in (0, 1]
  double period_seconds = 0.0;   ///< duty-cycle period
  double phase_seconds = 0.0;    ///< phase offset within the period
  double compute_factor = 1.0;   ///< local-train seconds multiplier (>= 1)
  double link_factor = 1.0;      ///< upload seconds multiplier (>= 1)
};

class ClientPopulation {
 public:
  /// `root` is forked (label "population"), not consumed: the caller's
  /// stream is unchanged, matching the engine's named-fork discipline.
  ClientPopulation(PopulationConfig config, const Rng& root);

  std::size_t n_registered() const { return config_.n_registered; }

  /// Deterministic profile of client `c` — pure in (seed, c).
  ClientProfile profile(std::size_t client) const;

  /// True when client `c` is inside its awake window at simulated time
  /// `t_seconds`. Pure in (seed, c, t).
  bool available_at(std::size_t client, double t_seconds) const;

  /// Draw `k` distinct client ids, sorted ascending, using O(k) memory.
  /// k == 0 returns an empty draw; k must not exceed n_registered().
  /// Consumes `rng` (pass a per-round fork, e.g. round_rng.fork("sample")).
  std::vector<std::size_t> sample(Rng& rng, std::size_t k) const;

 private:
  PopulationConfig config_;
  Rng root_;
};

}  // namespace fhdnn::fl
