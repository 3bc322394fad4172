// Residual networks and the paper's CNN baselines.
//
// The paper trains ResNet-18 (11M params) on CIFAR10/FashionMNIST and a
// 2-conv/2-fc CNN on MNIST. This module provides:
//   * ResidualBlock — conv/BN/ReLU x2 with identity or projection skip,
//     full backward;
//   * make_mini_resnet — a 3-stage residual network, width-configurable
//     (the scaled-down stand-in for ResNet-18; see DESIGN.md §3);
//   * make_cnn2 — the paper's MNIST baseline (2 conv + 2 fc).
#pragma once

#include <cstdint>
#include <memory>

#include "nn/batchnorm.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace fhdnn::nn {

/// Basic residual block: y = ReLU(BN(conv(ReLU(BN(conv(x))))) + skip(x)).
/// When stride != 1 or channel counts differ, the skip path is a 1x1
/// strided convolution followed by BatchNorm (the standard projection
/// shortcut from He et al.).
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                std::int64_t stride, Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> buffers() override;
  void set_training(bool training) override;
  std::string name() const override { return "ResidualBlock"; }

  bool has_projection() const { return proj_conv_ != nullptr; }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::unique_ptr<Conv2d> proj_conv_;  // null for identity skip
  std::unique_ptr<BatchNorm2d> proj_bn_;

  Tensor g_sum_;  // grad through the output ReLU
  Tensor y_;      // ReLU(main + skip), summed and rectified in place
  Tensor gx_;
};

/// 3-stage residual classifier for (C, H, W) inputs.
/// Stage widths are (base, 2*base, 4*base); each stage is one block; stages
/// 2 and 3 downsample by 2. Head is GlobalAvgPool + Linear.
std::unique_ptr<Sequential> make_mini_resnet(std::int64_t in_channels,
                                             std::int64_t num_classes,
                                             std::int64_t base_width, Rng& rng);

/// The paper's MNIST baseline: 2 convolution layers + 2 fully connected
/// layers. `image_hw` is the (square) input spatial size, which must be
/// divisible by 4 (two 2x2 max pools).
std::unique_ptr<Sequential> make_cnn2(std::int64_t in_channels,
                                      std::int64_t image_hw,
                                      std::int64_t num_classes, Rng& rng);

}  // namespace fhdnn::nn
