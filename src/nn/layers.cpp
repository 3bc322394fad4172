#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/workspace.hpp"

namespace fhdnn::nn {

namespace {

Tensor kaiming_uniform(Shape shape, std::int64_t fan_in, Rng& rng) {
  const float bound = std::sqrt(6.0F / static_cast<float>(fan_in));
  return Tensor::rand(std::move(shape), rng, -bound, bound);
}

Tensor kaiming_normal(Shape shape, std::int64_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  return Tensor::randn(std::move(shape), rng, stddev);
}

std::uint32_t view_crc(ConstTensorView v) {
  return util::crc32(v.data(), static_cast<std::size_t>(v.numel()) *
                                   sizeof(float));
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(kaiming_uniform(Shape{out_features, in_features}, in_features,
                              rng)),
      bias_(Tensor(Shape{out_features})) {
  FHDNN_CHECK(in_features > 0 && out_features > 0,
              "Linear(" << in_features << ", " << out_features << ")");
}

const Tensor& Linear::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  FHDNN_CHECK(x.ndim() == 2 && x.dim(1) == in_,
              "Linear expects (N, " << in_ << "), got "
                                    << shape_to_string(x.shape()));
  x_ = x;
  if constexpr (util::checked_build()) x_crc_ = view_crc(x_);
  y_.ensure_shape({x.dim(0), out_});
  ops::linear_forward_into(x, weight_.value, bias_.value, y_);
  return y_;
}

const Tensor& Linear::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  FHDNN_CHECK(grad_out.ndim() == 2 && grad_out.dim(1) == out_ &&
                  grad_out.dim(0) == x_.dim(0),
              "Linear backward grad shape " << shape_to_string(grad_out.shape()));
  FHDNN_CHECKED_ASSERT(view_crc(x_) == x_crc_,
                       "Linear backward: the forward's input changed or was "
                       "freed before backward");
  // dW = g^T x, db = sum_rows(g), dx = g W
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  TensorView gw(ws.floats(out_ * in_), {out_, in_});
  ops::matmul_at_into(grad_out, x_, gw);
  ops::accumulate(weight_.grad, gw);
  TensorView gb(ws.floats(out_), {out_});
  ops::sum_rows_into(grad_out, gb);
  ops::accumulate(bias_.grad, gb);
  if (!input_grad_needed_) return no_input_grad();
  gx_.ensure_shape({grad_out.dim(0), in_});
  ops::matmul_into(grad_out, weight_.value, gx_);
  return gx_;
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               Rng& rng)
    : spec_{in_channels, out_channels, kernel, stride, padding},
      weight_(kaiming_normal(Shape{out_channels, in_channels, kernel, kernel},
                             in_channels * kernel * kernel, rng)),
      bias_(Tensor(Shape{out_channels})) {
  FHDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0 &&
                  padding >= 0,
              "Conv2d spec invalid");
}

const Tensor& Conv2d::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  FHDNN_CHECK(x.ndim() == 4, "Conv2d expects (N,C,H,W), got "
                                 << shape_to_string(x.shape()));
  y_.ensure_shape({x.dim(0), spec_.out_channels, spec_.out_size(x.dim(2)),
                   spec_.out_size(x.dim(3))});
  cols_ready_ = false;
  if (!training_) {
    ops::conv2d_forward_into(x, weight_.value, bias_.value, spec_, y_,
                             util::tls_workspace());
    return y_;
  }
  in_shape_ = x.shape();
  cols_.ensure_shape({y_.dim(0) * y_.dim(2) * y_.dim(3),
                      spec_.in_channels * spec_.kernel * spec_.kernel});
  ops::conv2d_forward_into(x, weight_.value, bias_.value, spec_, y_, cols_,
                           util::tls_workspace());
  cols_ready_ = true;
  return y_;
}

const Tensor& Conv2d::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  // The kept columns belong to the last training-mode forward, and only
  // one backward may consume them.
  FHDNN_CHECKED_ASSERT(cols_ready_,
                       "Conv2d backward without a training-mode forward "
                       "since the last backward");
  FHDNN_CHECKED_ASSERT(
      grad_out.ndim() == 4 && grad_out.dim(0) == in_shape_[0] &&
          grad_out.dim(2) == spec_.out_size(in_shape_[2]) &&
          grad_out.dim(3) == spec_.out_size(in_shape_[3]),
      "Conv2d backward grad " << shape_to_string(grad_out.shape())
                              << " does not match the forward input "
                              << shape_to_string(in_shape_));
  cols_ready_ = false;
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  TensorView gw(ws.floats(weight_.value.numel()),
                {spec_.out_channels, spec_.in_channels, spec_.kernel,
                 spec_.kernel});
  TensorView gb(ws.floats(spec_.out_channels), {spec_.out_channels});
  if (input_grad_needed_) gx_.ensure_shape(in_shape_);
  TensorView gx(gx_);
  ops::conv2d_backward_from_cols_into(grad_out, cols_, weight_.value, spec_,
                                      input_grad_needed_ ? &gx : nullptr, gw,
                                      gb, ws);
  ops::accumulate(weight_.grad, gw);
  ops::accumulate(bias_.grad, gb);
  return input_grad_needed_ ? gx_ : no_input_grad();
}

const Tensor& ReLU::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  y_.ensure_shape(x.shape());
  ops::relu_into(x, y_);
  return y_;
}

const Tensor& ReLU::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  gx_.ensure_shape(y_.shape());
  ops::relu_backward_into(grad_out, y_, gx_);
  return gx_;
}

MaxPool2d::MaxPool2d(std::int64_t kernel) : kernel_(kernel) {
  FHDNN_CHECK(kernel >= 1, "MaxPool2d kernel " << kernel);
}

const Tensor& MaxPool2d::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  FHDNN_CHECK(x.ndim() == 4, "MaxPool2d expects (N,C,H,W), got "
                                 << shape_to_string(x.shape()));
  cached_shape_ = x.shape();
  y_.ensure_shape({x.dim(0), x.dim(1), x.dim(2) / kernel_, x.dim(3) / kernel_});
  cached_argmax_.resize(static_cast<std::size_t>(y_.numel()));
  ops::maxpool2d_forward_into(x, kernel_, y_, cached_argmax_);
  return y_;
}

const Tensor& MaxPool2d::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  gx_.ensure_shape(cached_shape_);
  ops::maxpool2d_backward_into(grad_out, cached_argmax_, gx_);
  return gx_;
}

const Tensor& GlobalAvgPool::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  FHDNN_CHECK(x.ndim() == 4, "GlobalAvgPool expects (N,C,H,W), got "
                                 << shape_to_string(x.shape()));
  cached_shape_ = x.shape();
  y_.ensure_shape({x.dim(0), x.dim(1)});
  ops::global_avgpool_forward_into(x, y_);
  return y_;
}

const Tensor& GlobalAvgPool::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  gx_.ensure_shape(cached_shape_);
  ops::global_avgpool_backward_into(grad_out, gx_);
  return gx_;
}

const Tensor& Flatten::forward(const Tensor& x) {
  FHDNN_CHECKED_TENSOR(x);
  FHDNN_CHECK(x.ndim() >= 2, "Flatten expects batched input");
  cached_shape_ = x.shape();
  const std::int64_t n = x.dim(0);
  y_.ensure_shape({n, x.numel() / n});
  const auto src = x.data();
  std::copy(src.begin(), src.end(), y_.data().begin());
  return y_;
}

const Tensor& Flatten::backward(const Tensor& grad_out) {
  FHDNN_CHECKED_TENSOR(grad_out);
  gx_.ensure_shape(cached_shape_);
  const auto src = grad_out.data();
  std::copy(src.begin(), src.end(), gx_.data().begin());
  return gx_;
}

}  // namespace fhdnn::nn
