// Concrete layers: Linear, Conv2d, ReLU, MaxPool2d, GlobalAvgPool, Flatten.
// BatchNorm2d lives in nn/batchnorm.hpp.
//
// Each layer owns its output buffer `y_` and input-gradient buffer `gx_`,
// resized in place with Tensor::ensure_shape — after the first step at a
// given batch shape, forward/backward touch no heap. Workspace scratch for
// the matmul/conv kernels comes from the calling thread's arena. No layer
// copies its input: backward reads the input through a view (Linear), its
// own output (ReLU) or what forward derived from it (the rest).
#pragma once

#include <cstdint>
#include <memory>

#include "nn/module.hpp"
#include "tensor/conv.hpp"
#include "tensor/view.hpp"
#include "util/rng.hpp"

namespace fhdnn::nn {

/// Fully connected layer y = x W^T + b with Kaiming-uniform init. Backward
/// reads forward's input through a view, under Module::forward's input
/// lifetime contract; FHDNN_CHECKED builds verify that contract with a
/// CRC-32 of the viewed bytes.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  ConstTensorView x_{nullptr, detail::ViewDims{}};  // the forward's input
  std::uint32_t x_crc_ = 0;  // its CRC-32, kept in FHDNN_CHECKED builds
  Tensor y_;
  Tensor gx_;
};

/// 2-d convolution (square kernel) with Kaiming-normal init. A
/// training-mode forward keeps its im2col columns in a layer-owned buffer
/// for backward, which reads them instead of rebuilding them from the
/// input; an eval-mode forward unfolds into the thread's workspace and
/// keeps nothing.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2d"; }

  const ops::Conv2dSpec& spec() const { return spec_; }
  Parameter& weight() { return weight_; }

 private:
  ops::Conv2dSpec spec_;
  Parameter weight_;  // (oc, ic, k, k)
  Parameter bias_;    // (oc)
  Shape in_shape_;    // input of the last training-mode forward
  Tensor cols_;       // its im2col, (n * oh * ow, ic * k * k)
  bool cols_ready_ = false;  // a training forward ran since the last backward
  Tensor y_;
  Tensor gx_;
};

/// Elementwise ReLU. Backward masks on the layer's own output, which is
/// positive exactly where the input is (ops::relu_backward_into).
class ReLU : public Module {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor y_;
  Tensor gx_;
};

/// Non-overlapping max pooling (stride == kernel).
class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::int64_t kernel);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  std::int64_t kernel_;
  Shape cached_shape_;
  std::vector<std::int64_t> cached_argmax_;
  Tensor y_;
  Tensor gx_;
};

/// (N, C, H, W) -> (N, C) global average pool.
class GlobalAvgPool : public Module {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_shape_;
  Tensor y_;
  Tensor gx_;
};

/// (N, ...) -> (N, prod(...)).
class Flatten : public Module {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }

 private:
  Shape cached_shape_;
  Tensor y_;
  Tensor gx_;
};

}  // namespace fhdnn::nn
