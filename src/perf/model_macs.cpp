#include "perf/model_macs.hpp"

#include "util/error.hpp"

namespace fhdnn::perf {

std::uint64_t conv2d_macs(std::int64_t in_channels, std::int64_t out_channels,
                          std::int64_t kernel, std::int64_t out_h,
                          std::int64_t out_w) {
  FHDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && out_h > 0 &&
                  out_w > 0,
              "conv2d_macs args");
  return static_cast<std::uint64_t>(out_h) * static_cast<std::uint64_t>(out_w) *
         static_cast<std::uint64_t>(out_channels) *
         static_cast<std::uint64_t>(in_channels) *
         static_cast<std::uint64_t>(kernel) * static_cast<std::uint64_t>(kernel);
}

std::uint64_t linear_macs(std::int64_t in_features, std::int64_t out_features) {
  FHDNN_CHECK(in_features > 0 && out_features > 0, "linear_macs args");
  return static_cast<std::uint64_t>(in_features) *
         static_cast<std::uint64_t>(out_features);
}

std::uint64_t cnn2_fwd_macs(std::int64_t in_channels, std::int64_t image_hw,
                            std::int64_t num_classes) {
  FHDNN_CHECK(image_hw % 4 == 0, "cnn2 geometry");
  std::uint64_t macs = 0;
  macs += conv2d_macs(in_channels, 16, 3, image_hw, image_hw);
  const std::int64_t h2 = image_hw / 2;
  macs += conv2d_macs(16, 32, 3, h2, h2);
  const std::int64_t h4 = image_hw / 4;
  macs += linear_macs(32 * h4 * h4, 128);
  macs += linear_macs(128, num_classes);
  return macs;
}

}  // namespace fhdnn::perf
