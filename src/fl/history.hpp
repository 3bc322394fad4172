// Per-round metrics of a federated training run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/snapshot.hpp"

namespace fhdnn::fl {

struct RoundMetrics {
  std::int64_t round = 0;           ///< 1-based round index
  double test_accuracy = 0.0;       ///< global model on the held-out set
  double train_loss = 0.0;          ///< mean local loss (CNN) or error rate (HD)
  std::size_t clients = 0;          ///< participants *accepted* this round
  std::size_t sampled = 0;          ///< participants drawn by the sampler
  std::size_t dropped = 0;          ///< sampled but failed to deliver
  /// Delivered on the air but not folded in this round: rejected by the
  /// round deadline (deadline rounds), or arrived after the Kth
  /// acceptance and buffered for a later round (buffered-async rounds).
  /// Invariant — enforced by an FHDNN_CHECKED assertion at round commit:
  /// clients + dropped + timed_out == sampled.
  std::size_t timed_out = 0;
  /// Buffered-async rounds only: late updates from *earlier* rounds
  /// applied this round with a staleness weight (FedBuff-style). Not part
  /// of the sampled-count invariant — their arrival round already
  /// accounted them as timed_out.
  std::size_t stale_accepted = 0;
  std::uint64_t bytes_uplink = 0;   ///< total client->server payload bytes
  std::uint64_t bits_on_air = 0;    ///< channel-level bits transmitted
  std::uint64_t bit_flips = 0;      ///< corruption events (BSC)
  std::uint64_t packets_lost = 0;   ///< corruption events (packet channel)
  std::uint64_t retransmissions = 0;  ///< ARQ frames retransmitted
  std::uint64_t residual_errors = 0;  ///< ARQ frames delivered corrupted
  /// Simulated duration of the round under the deadline model (device
  /// compute + LTE upload + ARQ backoff); 0 when deadline rounds are off.
  double simulated_round_seconds = 0.0;
  /// Discrete events processed by the round's event queue (train-done,
  /// upload-arrival, deadline); 0 when the engine ran without a timeline.
  std::uint64_t events = 0;
  /// Engine-measured wall-clock time of the round (local training +
  /// transport + reduction + evaluation). The one RoundMetrics field that
  /// is *not* covered by the bit-identical determinism contract.
  double wall_seconds = 0.0;
};

class TrainingHistory : public util::Snapshotable {
 public:
  void add(RoundMetrics m) { rounds_.push_back(m); }
  const std::vector<RoundMetrics>& rounds() const { return rounds_; }
  bool empty() const { return rounds_.empty(); }
  std::size_t size() const { return rounds_.size(); }

  /// Final-round accuracy (0 if no rounds ran).
  double final_accuracy() const;

  /// First (1-based) round whose accuracy reached `target`, if any.
  std::optional<std::int64_t> rounds_to_accuracy(double target) const;

  /// Total deadline-rejected participants across all rounds.
  std::size_t total_timed_out() const;

  /// Total channel-level traffic and ARQ reliability cost across all rounds.
  std::uint64_t total_bits_on_air() const;
  std::uint64_t total_retransmissions() const;
  std::uint64_t total_residual_errors() const;

  /// Total simulated campaign time under the deadline model, seconds.
  double total_simulated_seconds() const;

  /// Snapshot every RoundMetrics field bit-exactly (doubles as raw IEEE
  /// bits, wall_seconds included — it is state, just not golden-compared).
  void save(util::SnapshotWriter& w) const override;
  void load(util::SnapshotReader& r) override;

 private:
  std::vector<RoundMetrics> rounds_;
};

}  // namespace fhdnn::fl
