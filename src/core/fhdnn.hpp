// FhdnnModel — the paper's primary contribution (§3.1-3.4.1), assembled.
//
//   images -> frozen CNN feature extractor (features/extractor.hpp)
//          -> random-projection HD encoder, phi(z) = sign(Phi z) (hdc/)
//          -> HD classifier over class prototypes (hdc/classifier.hpp)
//
// Everything upstream of the classifier is deterministic in the shared
// seed, so clients never exchange the extractor or Phi — only the (K x d)
// prototype matrix, which is what makes FHDnn's updates 22x smaller than
// ResNet-18's.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "features/extractor.hpp"
#include "fl/fedhd.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"

namespace fhdnn::core {

struct FhdnnConfig {
  std::int64_t in_channels = 1;
  std::int64_t image_hw = 28;
  std::int64_t num_classes = 10;
  std::int64_t feature_dim = 512;  ///< n, the extractor output size
  std::int64_t hd_dim = 10'000;    ///< d
  std::int64_t conv_width = 16;    ///< extractor trunk width (first conv)
  std::uint64_t shared_seed = 0xF00D;  ///< "pretraining" seed shared by all parties
};

class FhdnnModel {
 public:
  explicit FhdnnModel(FhdnnConfig config);

  const FhdnnConfig& config() const { return config_; }
  const features::FrozenFeatureExtractor& extractor() const { return extractor_; }
  features::FrozenFeatureExtractor& extractor() { return extractor_; }
  const hdc::RandomProjectionEncoder& encoder() const { return encoder_; }
  hdc::HdClassifier& classifier() { return classifier_; }
  const hdc::HdClassifier& classifier() const { return classifier_; }

  /// Calibrate the extractor's output standardization once (idempotent
  /// callers should check extractor().standardized()).
  void calibrate(const Tensor& images);

  /// images (N,C,H,W) -> hypervectors (N,d).
  Tensor encode_images(const Tensor& images) const;

  /// Encode a whole dataset into FL-ready hypervector data.
  fl::HdClientData encode_dataset(const data::Dataset& ds) const;

  /// Local training exactly as §3.4.1: one-shot bundle (if the classifier
  /// is empty) + `epochs` refinement passes. Returns final epoch's
  /// misprediction count.
  std::int64_t train_local(const fl::HdClientData& data, int epochs);

  /// Predicted class per image.
  std::vector<std::int64_t> predict(const Tensor& images) const;

  /// Accuracy on a raw-image dataset.
  double accuracy(const data::Dataset& ds) const;

  /// Transmissible model size in bytes (raw float32 prototypes), computed
  /// with the shared channel::hd_update_bytes accounting rule.
  std::uint64_t update_bytes() const;

 private:
  FhdnnConfig config_;
  features::FrozenFeatureExtractor extractor_;
  hdc::RandomProjectionEncoder encoder_;
  hdc::HdClassifier classifier_;
};

}  // namespace fhdnn::core
