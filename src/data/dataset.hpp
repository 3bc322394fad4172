// Labeled dataset container and batching utilities.
//
// A Dataset owns one tensor of examples — (N, C, H, W) for images or
// (N, F) for feature vectors — plus integer labels. Federated partitioners
// (data/partition.hpp) produce per-client index lists; `gather` materializes
// a batch tensor from such indices.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fhdnn::data {

struct Dataset {
  Tensor x;                          ///< (N, C, H, W) or (N, F)
  std::vector<std::int64_t> labels;  ///< N entries in [0, num_classes)
  std::int64_t num_classes = 0;
  std::string name;

  std::int64_t size() const { return static_cast<std::int64_t>(labels.size()); }
  bool is_image() const { return x.ndim() == 4; }

  /// Validate internal consistency; throws on violation.
  void check() const;

  /// Per-example scalar count (C*H*W or F).
  std::int64_t example_numel() const;

  /// Materialize the examples at `indices` as a batch tensor, plus labels.
  struct Batch {
    Tensor x;
    std::vector<std::int64_t> labels;
  };
  Batch gather(const std::vector<std::size_t>& indices) const;

  /// Subset copy (used to build per-client shards and train/test splits).
  Dataset subset(const std::vector<std::size_t>& indices) const;
};

/// Split a dataset into train/test by a deterministic shuffle.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};
TrainTestSplit train_test_split(const Dataset& ds, double test_fraction,
                                Rng& rng);

/// Iterates shuffled mini-batches of indices over [0, n).
class BatchIterator {
 public:
  /// One pass (epoch) over n examples in batches of `batch_size`; the final
  /// partial batch is included.
  BatchIterator(std::size_t n, std::size_t batch_size, Rng& rng);

  /// Next batch of indices; empty when the epoch is exhausted.
  std::vector<std::size_t> next();

  bool done() const { return cursor_ >= order_.size(); }
  void reset(Rng& rng);

 private:
  std::size_t batch_size_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

}  // namespace fhdnn::data
