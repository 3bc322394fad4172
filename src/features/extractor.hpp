// Frozen feature extractor — the pre-trained SimCLR stand-in (DESIGN.md §3).
//
// The paper uses a SimCLR-pretrained ResNet whose weights are (a) fixed,
// (b) identical on every client, and (c) never transmitted. What FHDnn
// needs from it is a deterministic, shared, class-informative map from
// images to feature vectors. We realize that with a frozen random
// convolutional network (random-features construction):
//
//   conv3x3 s2 -> ReLU -> conv3x3 s2 -> ReLU -> conv3x3 s2 -> ReLU
//   -> flatten -> frozen random linear projection -> tanh
//   -> (optional) standardization
//
// The flattened final conv map keeps spatial structure (a global pool
// destroys the class-discriminative layout), mirroring how SimCLR features
// are taken from the full penultimate representation.
//
// All weights derive from a single seed, so any two parties constructing an
// extractor with the same config hold bit-identical weights — mirroring how
// FHDnn clients all ship with the same pretrained CNN. `fit_standardization`
// plays the role of the pretraining statistics: it is fit once (on any
// calibration sample) and then frozen.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/module.hpp"
#include "tensor/tensor.hpp"
#include "tensor/view.hpp"

namespace fhdnn::features {

class FrozenFeatureExtractor {
 public:
  struct Config {
    std::int64_t in_channels = 1;
    std::int64_t image_hw = 28;
    std::int64_t conv_width = 16;   ///< first conv's channels (doubles twice)
    std::int64_t output_dim = 512;  ///< feature dimension n fed to the HD encoder
    std::uint64_t seed = 0x51AC1ULL; ///< shared "pretraining" seed
  };

  explicit FrozenFeatureExtractor(Config config);

  /// (N, C, H, W) -> (N, output_dim). Runs in inference mode; never updates
  /// any state. Batches internally to bound peak memory. The `_into` form
  /// writes into a caller-owned (N, output_dim) buffer and — together with
  /// the reused internal batch scratch — is allocation-free at steady state.
  /// Aliasing: out must not overlap images (rows are staged through the
  /// extractor's CNN before the copy-out).
  Tensor extract(const Tensor& images) const;
  void extract_into(const Tensor& images, TensorView out) const;

  /// Fit the output standardization (per-dimension mean/scale) on a
  /// calibration batch, then freeze it. May be called at most once.
  void fit_standardization(const Tensor& calibration_images);

  std::int64_t output_dim() const { return config_.output_dim; }

 private:
  Config config_;
  // Mutable because nn::Module::forward caches activations; logically const
  // for a frozen extractor. batch_/z_ are reused per-minibatch scratch.
  mutable std::unique_ptr<nn::Sequential> trunk_;
  mutable Tensor batch_;
  mutable Tensor z_;
  Tensor expansion_;  // (output_dim, trunk_out_dim) frozen random matrix
  Tensor expansion_bias_;  // (output_dim)
  Tensor mean_;   // (output_dim) standardization mean
  Tensor scale_;  // (output_dim) standardization 1/std
  bool standardized_ = false;
};

}  // namespace fhdnn::features
