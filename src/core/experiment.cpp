#include "core/experiment.hpp"

#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace fhdnn::core {

std::string to_string(Distribution d) {
  return d == Distribution::Iid ? "iid" : "non-iid";
}

ExperimentData make_experiment_data(const std::string& dataset_name,
                                    std::int64_t total_examples,
                                    std::size_t n_clients, Distribution dist,
                                    std::uint64_t seed) {
  Rng rng(seed);
  Rng data_rng = rng.fork("data-" + dataset_name);
  data::Dataset full;
  if (dataset_name == "mnist") {
    full = data::synthetic_mnist(total_examples, data_rng);
  } else if (dataset_name == "fashion") {
    full = data::synthetic_fashion(total_examples, data_rng);
  } else if (dataset_name == "cifar") {
    full = data::synthetic_cifar(total_examples, data_rng);
  } else {
    throw Error("unknown dataset '" + dataset_name +
                "' (want mnist|fashion|cifar)");
  }
  Rng split_rng = rng.fork("split");
  auto split = data::train_test_split(full, 0.1, split_rng);
  Rng part_rng = rng.fork("partition");
  data::ClientIndices parts =
      dist == Distribution::Iid
          ? data::partition_iid(split.train, n_clients, part_rng)
          : data::partition_dirichlet(split.train, n_clients, 0.3, part_rng);
  return ExperimentData{std::move(split.train), std::move(split.test),
                        std::move(parts)};
}

FhdnnConfig fhdnn_config_for(const data::Dataset& ds, std::int64_t hd_dim,
                             std::int64_t feature_dim) {
  FHDNN_CHECK(ds.is_image(), "fhdnn_config_for expects an image dataset");
  FhdnnConfig c;
  c.in_channels = ds.x.dim(1);
  c.image_hw = ds.x.dim(2);
  c.num_classes = ds.num_classes;
  const bool rgb = c.in_channels == 3;
  c.conv_width = rgb ? 48 : 16;
  c.feature_dim = feature_dim > 0 ? feature_dim : (rgb ? 512 : 256);
  c.hd_dim = hd_dim;
  return c;
}

CnnParams cnn_params_for(const std::string& dataset_name) {
  CnnParams p;
  if (dataset_name == "mnist") {
    p.arch = CnnArch::Cnn2;
    p.lr = 0.05F;
  } else {
    p.arch = CnnArch::MiniResNet;
    p.base_width = 8;
    p.lr = 0.05F;
  }
  return p;
}

FederatedParams paper_default_params(std::size_t n_clients, int rounds,
                                     std::uint64_t seed) {
  FederatedParams p;
  p.n_clients = n_clients;
  p.client_fraction = 0.2;  // C
  p.local_epochs = 2;       // E
  p.batch_size = 10;        // B
  p.rounds = rounds;
  p.seed = seed;
  return p;
}

}  // namespace fhdnn::core
