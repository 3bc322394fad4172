// Analytic MAC counts for the model architectures in this repo, used to
// feed the device cost model and to report communication/compute tables.
#pragma once

#include <cstdint>

namespace fhdnn::perf {

/// Forward multiply-accumulates of one conv layer.
std::uint64_t conv2d_macs(std::int64_t in_channels, std::int64_t out_channels,
                          std::int64_t kernel, std::int64_t out_h,
                          std::int64_t out_w);

/// Forward MACs of one linear layer.
std::uint64_t linear_macs(std::int64_t in_features, std::int64_t out_features);

/// Forward MACs per image of the CNN-2conv/2fc MNIST baseline
/// (nn::make_cnn2 with the given geometry).
std::uint64_t cnn2_fwd_macs(std::int64_t in_channels, std::int64_t image_hw,
                            std::int64_t num_classes);

/// Parameter counts for communication accounting at paper scale.
constexpr std::uint64_t kResNet18Params = 11'000'000;  ///< paper §4.4
constexpr std::uint64_t kResNet18UpdateBytes = 22'000'000;  ///< 22 MB
constexpr std::uint64_t kFhdnnUpdateBytes = 1'000'000;      ///< 1 MB (d=10k HD model)

}  // namespace fhdnn::perf
