// Hyperdimensional classifier (paper §3.4.1).
//
// The model is the matrix C of K class prototype hypervectors (K x d).
// Training:
//   * one-shot: bundle (sum) the hypervectors of each class into its
//     prototype, c_k = sum_i h_i^k;
//   * refinement: for each training hypervector, if the current prediction
//     is wrong, subtract it from the mispredicted prototype and add it to
//     the correct one, with the paper's fixed unit step.
// Inference: cosine similarity against each prototype, argmax.
//
// The prototype matrix is ordinary float storage here; the transmission
// path quantizes it to B-bit integers (hdc/quantizer.hpp), matching the
// paper's integer-represented class hypervectors.
//
// Both hot loops run on one dispatched SIMD kernel with every class in its
// own vector lane (util/simd.hpp gemm_dot_norm_f64, DESIGN.md §11): the
// prototypes are laid out as a k-major float panel (ops::pack_panel), once
// per readout call or refinement epoch, and the kernel takes a block of
// queries, or one refinement sample, against all classes, the rows' own
// norms included. A refinement update rewrites the panel's two lanes.
// Each similarity, dot and norm is still one double chain in ascending
// dimension order, so every tier returns the scalar loop's bits, pinned
// by tests/test_hdc.cpp at each tier.
#pragma once

#include <cstdint>
#include <vector>

#include "hdc/packed.hpp"
#include "tensor/tensor.hpp"

namespace fhdnn::hdc {

class HdClassifier {
 public:
  /// K-class classifier over d-dimensional hypervectors, zero-initialized.
  HdClassifier(std::int64_t num_classes, std::int64_t hd_dim);

  /// Classifier that starts from (takes) a (K, d) prototype matrix.
  explicit HdClassifier(Tensor prototypes);

  std::int64_t num_classes() const { return k_; }
  std::int64_t hd_dim() const { return d_; }

  /// One-shot learning: add each hypervector to its class prototype.
  /// h: (N, d) encoded batch; labels: N entries.
  void bundle(const Tensor& h, const std::vector<std::int64_t>& labels);

  /// One refinement epoch over the batch (unit step); returns the number
  /// of updates (mispredictions) performed.
  std::int64_t refine_epoch(const Tensor& h,
                            const std::vector<std::int64_t>& labels);

  /// Cosine similarities of each row of h against each prototype: (N, K).
  Tensor similarities(const Tensor& h) const;

  /// Similarities computed on a subset of dimensions (mask[i] == true means
  /// dimension i participates). Models the partial-information / packet-loss
  /// readout of paper Fig. 5.
  Tensor masked_similarities(const Tensor& h,
                             const std::vector<bool>& mask) const;

  /// Argmax class per row of h.
  std::vector<std::int64_t> predict(const Tensor& h) const;

  /// Fraction of rows predicted correctly.
  double accuracy(const Tensor& h, const std::vector<std::int64_t>& labels) const;

  /// The model C (K x d). Mutable access is the federated aggregation and
  /// channel-corruption hook.
  const Tensor& prototypes() const { return c_; }
  Tensor& prototypes() { return c_; }
  void set_prototypes(Tensor c);

 private:
  std::int64_t k_;
  std::int64_t d_;
  Tensor c_;  // (K, d)
};

/// Nearest-prototype classification on the bit-packed representation:
/// for each query row, the class with the minimum hamming distance
/// (strict <, first class wins ties). For bipolar vectors cosine is
/// 1 - 2*hamming/d, so this matches HdClassifier::predict on the
/// unpacked ±1 matrices exactly — pinned by tests/test_packed.cpp —
/// while costing one popcount pass per (query, class) pair instead of a
/// float dot product.
std::vector<std::int64_t> classify_packed(const PackedModel& prototypes,
                                          const PackedModel& queries);

}  // namespace fhdnn::hdc
