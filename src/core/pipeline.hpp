// End-to-end federated pipelines: FHDnn and the CNN baseline, set up
// identically (same data, same partition, same hyperparameters E/B/C) so
// experiments compare like for like, as in paper §4.
#pragma once

#include <memory>
#include <string>

#include "channel/channel.hpp"
#include "core/fhdnn.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"

namespace fhdnn::core {

/// Shared federated hyperparameters (paper notation).
struct FederatedParams {
  std::size_t n_clients = 20;
  double client_fraction = 0.2;  ///< C
  int local_epochs = 2;          ///< E
  std::size_t batch_size = 10;   ///< B (CNN only; HD training is batch-free)
  int rounds = 20;
  std::uint64_t seed = 1;
  int eval_every = 1;
  /// Robustness layers, applied identically to both pipelines (off by
  /// default): per-client fault injection and deadline-based rounds.
  fl::FaultConfig faults;
  fl::DeadlineConfig deadline;
};

/// Hypervector-encoded federated data, ready for fl::FedHdTrainer. Produced
/// once per (dataset, partition); reusable across many uplink settings —
/// the frozen extractor and encoder never change.
struct EncodedFederatedData {
  std::vector<fl::HdClientData> clients;
  fl::HdClientData test;
  std::int64_t num_classes = 0;
  std::int64_t hd_dim = 0;
};

/// Build the shared frozen model, calibrate standardization on (at most 256
/// of) the training images, and encode every client shard plus the test set.
EncodedFederatedData encode_for_fhdnn(const FhdnnConfig& model_config,
                                      const data::Dataset& train,
                                      const data::ClientIndices& parts,
                                      const data::Dataset& test);

/// Run federated bundling on pre-encoded data with the given uplink.
fl::TrainingHistory run_fhdnn_on_encoded(const EncodedFederatedData& enc,
                                         const FederatedParams& params,
                                         const channel::HdUplinkConfig& uplink);

/// Run FHDnn federated training on raw image data (encode + train in one
/// call; prefer encode_for_fhdnn + run_fhdnn_on_encoded when sweeping
/// channel settings).
fl::TrainingHistory run_fhdnn_federated(const FhdnnConfig& model_config,
                                        const data::Dataset& train,
                                        const data::ClientIndices& parts,
                                        const data::Dataset& test,
                                        const FederatedParams& params,
                                        const channel::HdUplinkConfig& uplink);

/// Which CNN baseline architecture to instantiate.
enum class CnnArch {
  Cnn2,        ///< 2 conv + 2 fc (the paper's MNIST model)
  MiniResNet,  ///< scaled-down ResNet (the paper's CIFAR/Fashion model)
};

struct CnnParams {
  CnnArch arch = CnnArch::MiniResNet;
  std::int64_t base_width = 8;  ///< MiniResNet width
  float lr = 0.05F;
  float momentum = 0.9F;
  float weight_decay = 0.0F;
};

/// Run the FedAvg CNN baseline on the same data/partition. `uplink` may be
/// null for reliable links.
fl::TrainingHistory run_cnn_federated(const CnnParams& cnn,
                                      const data::Dataset& train,
                                      const data::ClientIndices& parts,
                                      const data::Dataset& test,
                                      const FederatedParams& params,
                                      const channel::Channel* uplink);

/// Update sizes (bytes) for communication accounting, delegated to
/// channel::hd_update_bytes so every layer reports with the same rule.
/// The one-argument overload assumes raw float32 prototypes; the
/// two-argument one accounts under a specific uplink (AGC-quantized or
/// binary payloads shrink accordingly).
std::uint64_t fhdnn_update_bytes(const FhdnnConfig& config);
std::uint64_t fhdnn_update_bytes(const FhdnnConfig& config,
                                 const channel::HdUplinkConfig& uplink);
std::uint64_t cnn_update_bytes(const CnnParams& cnn, const data::Dataset& ds);

}  // namespace fhdnn::core
