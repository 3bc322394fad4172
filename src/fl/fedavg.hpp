// Federated Averaging over CNN models (McMahan et al.) — the paper's
// baseline, expressed as a RoundEngine instantiation (fl/engine.hpp):
//   * LocalLearner: E epochs of minibatch SGD from the broadcast state on a
//     per-task worker model (pooled, one instance per concurrent client);
//   * Transport: channel::FloatStateTransport — optional update
//     subsampling, then the float32 channel path of paper §3.5 (a null
//     channel is a perfect link);
//   * Aggregator: example-count weighted averaging in fixed client order.
// The engine owns sampling, pre-drawn dropout coins, the client-parallel
// schedule, and per-round accounting, so results are bit-identical at
// every FHDNN_THREADS setting (DESIGN.md §6).
#pragma once

#include <functional>
#include <memory>

#include "channel/channel.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "fl/engine.hpp"
#include "nn/module.hpp"

namespace fhdnn::fl {

/// Builds a fresh instance of the model architecture. All instances must
/// have identical state layouts; the Rng seeds the initial weights.
using ModelFactory = std::function<std::unique_ptr<nn::Module>(Rng&)>;

struct FedAvgConfig {
  std::size_t n_clients = 10;
  double client_fraction = 0.2;  ///< C
  int local_epochs = 2;          ///< E
  std::size_t batch_size = 10;   ///< B
  int rounds = 20;
  float lr = 0.05F;
  float momentum = 0.9F;
  float weight_decay = 0.0F;
  int eval_every = 1;            ///< evaluate test accuracy every k rounds
  /// Probability that a sampled participant fails to deliver its update
  /// (straggler / power loss / link outage). A round where every
  /// participant drops leaves the global model unchanged.
  double dropout_prob = 0.0;
  /// Update-subsampling compression (the federated-dropout family of
  /// baselines the paper cites, refs [4][5]): each client transmits only
  /// this fraction of its state scalars (random mask, fresh per client per
  /// round); the server keeps the previous global value for the rest.
  /// 1.0 = full updates. Uplink byte accounting scales accordingly.
  double update_fraction = 1.0;
  std::uint64_t seed = 1;
  /// Per-client fault injection (crashes, outages, stragglers, link-quality
  /// multipliers) — fl/faults.hpp. All-off by default.
  FaultConfig faults;
  /// Deadline-based rounds with over-selection — fl/engine.hpp. Off by
  /// default.
  DeadlineConfig deadline;
  /// Buffered-async (FedBuff-style) rounds — fl/engine.hpp. Off by
  /// default; mutually exclusive with deadline rounds.
  AsyncConfig async;
  /// Crash-consistent snapshots (fl/engine.hpp). Off by default.
  CheckpointConfig checkpoint;
  /// Injected aggregator kill for crash-recovery testing (fl/faults.hpp).
  CrashPlan crash;
};

namespace detail {
class FedAvgProtocol;
}  // namespace detail

class FedAvgTrainer {
 public:
  /// `parts` assigns training examples to clients (see data/partition.hpp);
  /// `uplink` may be null for a perfect channel. The channel and datasets
  /// must outlive the trainer.
  FedAvgTrainer(ModelFactory factory, const data::Dataset& train,
                data::ClientIndices parts, const data::Dataset& test,
                FedAvgConfig config, const channel::Channel* uplink = nullptr);
  ~FedAvgTrainer();

  /// Run all configured rounds; returns the per-round history.
  TrainingHistory run();

  /// Execute a single round (exposed for tests and custom loops).
  RoundMetrics round(int round_index);

  /// Snapshot the full engine + protocol state to `path` (atomic commit,
  /// previous generation kept as `<path>.prev`).
  void checkpoint(const std::string& path);

  /// Restore a snapshot into this freshly-constructed trainer (same config
  /// required); run() then continues bit-identically to an uninterrupted
  /// run. Falls back to `<path>.prev` on a torn/corrupt primary.
  void resume(const std::string& path);

  /// Accuracy of the current global model on the test set.
  double evaluate();

  nn::Module& global_model();
  const TrainingHistory& history() const { return engine_->history(); }

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
  std::unique_ptr<detail::FedAvgProtocol> protocol_;
  std::unique_ptr<RoundEngine> engine_;
};

}  // namespace fhdnn::fl
