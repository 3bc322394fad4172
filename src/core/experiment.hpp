// Experiment scaffolding shared by benches and examples: named dataset
// construction, partitioning by mode, and paper-default hyperparameters.
#pragma once

#include <string>

#include "core/fhdnn.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "data/partition.hpp"

namespace fhdnn::core {

/// Data distribution across clients.
enum class Distribution { Iid, NonIid };

std::string to_string(Distribution d);

/// A fully prepared federated experiment: train/test split + client shards.
struct ExperimentData {
  data::Dataset train;
  data::Dataset test;
  data::ClientIndices parts;
};

/// Build one of the named synthetic datasets ("mnist", "fashion", "cifar"),
/// split train/test (10% test), and partition across `n_clients`.
/// Non-IID uses the Dirichlet(0.3) split.
ExperimentData make_experiment_data(const std::string& dataset_name,
                                    std::int64_t total_examples,
                                    std::size_t n_clients, Distribution dist,
                                    std::uint64_t seed);

/// FhdnnConfig matching a dataset's geometry. feature_dim = 0 (default)
/// auto-selects per dataset: RGB data gets a wider extractor trunk and
/// larger feature dimension (the harder datasets need richer frozen
/// features, mirroring the paper's use of a full ResNet for CIFAR).
FhdnnConfig fhdnn_config_for(const data::Dataset& ds, std::int64_t hd_dim,
                             std::int64_t feature_dim = 0);

/// The CNN baseline the paper pairs with each dataset: Cnn2 for "mnist",
/// MiniResNet otherwise.
CnnParams cnn_params_for(const std::string& dataset_name);

/// Paper §4.3 defaults: E=2, C=0.2, B=10.
FederatedParams paper_default_params(std::size_t n_clients, int rounds,
                                     std::uint64_t seed);

}  // namespace fhdnn::core
