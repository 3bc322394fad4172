// FhdnnModel — the front end of the paper's primary contribution
// (§3.1-3.3), assembled:
//
//   images -> frozen CNN feature extractor (features/extractor.hpp)
//          -> random-projection HD encoder, phi(z) = sign(Phi z) (hdc/)
//
// The HD classifier over class prototypes (hdc/classifier.hpp) is trained
// federatedly on the encoded data by fl::FedHdTrainer. Everything upstream
// of the classifier is deterministic in the shared seed, so clients never
// exchange the extractor or Phi — only the (K x d) prototype matrix, which
// is what makes FHDnn's updates 22x smaller than ResNet-18's.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "features/extractor.hpp"
#include "fl/fedhd.hpp"
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

  /// Calibrate the extractor's output standardization once.
  void calibrate(const Tensor& images);

  /// images (N,C,H,W) -> hypervectors (N,d).
  Tensor encode_images(const Tensor& images) const;

  /// Encode a whole dataset into FL-ready hypervector data.
  fl::HdClientData encode_dataset(const data::Dataset& ds) const;

 private:
  FhdnnConfig config_;
  features::FrozenFeatureExtractor extractor_;
  hdc::RandomProjectionEncoder encoder_;
};

}  // namespace fhdnn::core
