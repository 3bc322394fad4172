// Federated bundling of HD models (paper §3.4.2), expressed as a
// RoundEngine instantiation (fl/engine.hpp):
//   * LocalLearner: set the local model to the round's broadcast prototype
//     matrix C_t (optionally pushed once through a corrupting downlink),
//     one-shot bundle on first contact while the global model is still
//     empty, then E epochs of unit-step HD refinement;
//   * Transport: channel::HdModelTransport — the §3.5 unreliable uplink
//     (bit errors / packet loss / analog AWGN, binary or AGC-quantized
//     payloads) with uniform byte/bit accounting;
//   * Aggregator: serial fixed-order bundling (Eq. 1). The paper writes the
//     aggregate as a plain sum; we divide by the participant count because
//     repeated summing grows the prototype norm geometrically across rounds
//     (overflowing float32 in long runs) while changing nothing else: cosine
//     inference is scale-invariant and the Eq. 4 SNR bundling gain is a
//     ratio, identical under sum and mean.
// The engine owns sampling, pre-drawn dropout coins, the client-parallel
// schedule, and per-round accounting, so results are bit-identical at
// every FHDNN_THREADS setting (DESIGN.md §6).
//
// The trainer borrows the encoded data: it keeps references to the
// caller's client vector and test set, never a copy, so any number of
// trainers over one data set (a fresh trainer per campaign, the server and
// worker replicas of a served run) share one (N, d) copy of it. The caller
// keeps both alive and unchanged until the trainer is destroyed; the
// rvalue overloads are deleted so a temporary cannot bind (DESIGN.md §9).
#pragma once

#include <memory>
#include <vector>

#include "channel/hd_uplink.hpp"
#include "fl/engine.hpp"
#include "hdc/classifier.hpp"
#include "tensor/tensor.hpp"

namespace fhdnn::fl {

/// One client's (or the test set's) encoded data.
struct HdClientData {
  Tensor h;                          ///< (N, d) hypervectors
  std::vector<std::int64_t> labels;  ///< N labels
};

struct FedHdConfig {
  std::size_t n_clients = 10;
  double client_fraction = 0.2;  ///< C
  int local_epochs = 2;          ///< E
  int rounds = 20;
  std::int64_t num_classes = 10;
  std::int64_t hd_dim = 10'000;
  int eval_every = 1;
  /// Probability that a sampled participant fails to deliver its update
  /// (straggler / power loss / link outage).
  double dropout_prob = 0.0;
  std::uint64_t seed = 1;
  channel::HdUplinkConfig uplink;  ///< defaults to a perfect channel
  /// Downlink (server -> clients) corruption. The paper assumes the
  /// broadcast is reliable ("error-free at arbitrary rates", §3.5); this
  /// knob drops that assumption: each round the broadcast copy every
  /// participant starts from is pushed through this channel once.
  channel::HdUplinkConfig downlink;  ///< defaults to a perfect channel
  /// Per-client fault injection (crashes, outages, stragglers, link-quality
  /// multipliers) — fl/faults.hpp. All-off by default.
  FaultConfig faults;
  /// Deadline-based rounds with over-selection — fl/engine.hpp. Off by
  /// default.
  DeadlineConfig deadline;
  /// Sparse registered-client fleet — fl/population.hpp. Off by default;
  /// requires deadline or async mode.
  PopulationConfig population;
  /// FedBuff-style buffered-async rounds — fl/engine.hpp. Off by default.
  AsyncConfig async;
  /// Crash-consistent snapshots (fl/engine.hpp). Off by default.
  CheckpointConfig checkpoint;
  /// Injected aggregator kill for crash-recovery testing (fl/faults.hpp).
  CrashPlan crash;
};

namespace detail {
class FedHdProtocol;
}  // namespace detail

class FedHdTrainer {
 public:
  /// `clients` (one entry per client id) and `test` are borrowed: they
  /// must outlive the trainer and stay unchanged while it runs.
  FedHdTrainer(const std::vector<HdClientData>& clients,
               const HdClientData& test, FedHdConfig config);
  FedHdTrainer(std::vector<HdClientData>&&, const HdClientData&,
               FedHdConfig) = delete;
  FedHdTrainer(const std::vector<HdClientData>&, HdClientData&&,
               FedHdConfig) = delete;
  ~FedHdTrainer();

  TrainingHistory run();
  RoundMetrics round(int round_index);
  double evaluate() const;

  /// Snapshot the full engine + protocol state to `path` (atomic commit,
  /// previous generation kept as `<path>.prev`).
  void checkpoint(const std::string& path);

  /// Restore a snapshot into this freshly-constructed trainer (same config
  /// required); run() then continues bit-identically to an uninterrupted
  /// run. Falls back to `<path>.prev` on a torn/corrupt primary.
  void resume(const std::string& path);

  const hdc::HdClassifier& global() const;
  hdc::HdClassifier& global();
  const TrainingHistory& history() const { return engine_->history(); }

  /// Uplink payload size per client per round, bytes — delegated to the
  /// transport so there is exactly one accounting rule (quantized size
  /// when the AGC path is active, 1 bit/scalar for binary transport).
  std::uint64_t update_bytes() const;

  /// The engine driving the rounds (sampling / dropout / schedule state).
  const RoundEngine& engine() const { return *engine_; }

  /// The type-erased protocol stack — the serving seam: fhdnnd workers
  /// drive it directly through fl::WorkerLoop (fl/serving.hpp).
  RoundProtocol& protocol();

  /// Route rounds through a custom driver (fl/serving.hpp's
  /// ServerRoundDriver); nullptr restores the in-process path.
  void set_round_driver(RoundDriver* driver);

  /// The engine's config fingerprint, exchanged in the hello handshake.
  std::uint32_t config_fingerprint() const;

 private:
  std::unique_ptr<detail::FedHdProtocol> protocol_;
  std::unique_ptr<RoundEngine> engine_;
};

}  // namespace fhdnn::fl
