// Convolution and pooling primitives (im2col based).
//
// Layouts: activations are (N, C, H, W); conv weights are
// (out_channels, in_channels, kh, kw); pooling is per-channel.
//
// Like tensor/ops.hpp, every kernel has an explicit-output `_into` variant
// (allocation-free: scratch comes from the caller's util::Workspace arena)
// and a value-returning wrapper that allocates results and borrows the
// calling thread's arena for scratch. Both forms run identical loops with
// identical parallel grains, so they are bit-for-bit interchangeable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"
#include "tensor/view.hpp"

namespace fhdnn::util {
class Workspace;
}  // namespace fhdnn::util

namespace fhdnn::ops {

struct Conv2dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 1;

  std::int64_t out_size(std::int64_t in) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }
};

/// Unfold x (N,C,H,W) into columns: result is
/// (N * out_h * out_w, C * kh * kw); each row is one receptive field.
/// Aliasing: cols must not overlap x (throws on overlap).
Tensor im2col(const Tensor& x, const Conv2dSpec& spec);
void im2col_into(ConstTensorView x, const Conv2dSpec& spec, TensorView cols);

/// Fold columns back, accumulating overlaps — adjoint of im2col. `n`, `h`,
/// `w` give the original input geometry. The `_into` form zero-fills the
/// output image first.
/// Aliasing: x must not overlap cols (throws on overlap).
Tensor col2im(const Tensor& cols, const Conv2dSpec& spec, std::int64_t n,
              std::int64_t h, std::int64_t w);
void col2im_into(ConstTensorView cols, const Conv2dSpec& spec, std::int64_t n,
                 std::int64_t h, std::int64_t w, TensorView x);

/// y = conv2d(x, weight) + bias. weight is (OC, IC, k, k), bias is (OC).
/// The `_into` forms draw their matmul scratch from `ws` (rewound on
/// return via a Workspace::Scope). The first keeps im2col(x) in the
/// caller's `cols` ((N * out_h * out_w, IC * k * k)), which the backward
/// can consume instead of rebuilding it; the second unfolds into `ws`.
/// Aliasing: y and cols must not overlap x, weight, bias or each other.
Tensor conv2d_forward(const Tensor& x, const Tensor& weight, const Tensor& bias,
                      const Conv2dSpec& spec);
void conv2d_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, const Conv2dSpec& spec,
                         TensorView y, TensorView cols, util::Workspace& ws);
void conv2d_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, const Conv2dSpec& spec,
                         TensorView y, util::Workspace& ws);

struct Conv2dGrads {
  Tensor grad_input;
  Tensor grad_weight;
  Tensor grad_bias;
};

/// Gradients of conv2d given upstream grad_out (N, OC, oh, ow) and the
/// forward input x. The `_into` form overwrites all three outputs
/// (zero-fill + accumulate, matching the wrapper's fresh tensors bit for
/// bit); callers that accumulate across steps add the results into their
/// parameter grads themselves (ops::accumulate).
/// Aliasing: the three grad outputs must not overlap the inputs or each
/// other.
Conv2dGrads conv2d_backward(const Tensor& grad_out, const Tensor& x,
                            const Tensor& weight, const Conv2dSpec& spec);
void conv2d_backward_into(ConstTensorView grad_out, ConstTensorView x,
                          ConstTensorView weight, const Conv2dSpec& spec,
                          TensorView grad_input, TensorView grad_weight,
                          TensorView grad_bias, util::Workspace& ws);

/// The same gradients from the forward's kept im2col `cols` (as
/// conv2d_forward_into's `cols` form left it) instead of the input, which
/// conv2d_backward_into rebuilds them from. Every output is bit-identical
/// to that form. `grad_input` carries the input geometry; null skips the
/// input gradient (its matmul and col2im) for a caller that never reads it.
/// Aliasing: the grad outputs must not overlap cols, the inputs or each
/// other.
void conv2d_backward_from_cols_into(ConstTensorView grad_out,
                                    ConstTensorView cols,
                                    ConstTensorView weight,
                                    const Conv2dSpec& spec,
                                    TensorView* grad_input,
                                    TensorView grad_weight,
                                    TensorView grad_bias, util::Workspace& ws);

/// 2x2 (or kxk) max pooling with stride == kernel.
/// Returns pooled output and the flat argmax index per output element
/// (into the input tensor) for the backward pass. Ties go to the first
/// maximum in row-major window order; a window holding NaN outputs NaN
/// with its first NaN as argmax.
/// Aliasing: out must not overlap x.
struct MaxPoolResult {
  Tensor output;
  std::vector<std::int64_t> argmax;  // size == output.numel()
};
MaxPoolResult maxpool2d_forward(const Tensor& x, std::int64_t kernel);
void maxpool2d_forward_into(ConstTensorView x, std::int64_t kernel,
                            TensorView out, std::span<std::int64_t> argmax);

/// Scatter upstream grads through the recorded argmax indices. The `_into`
/// form zero-fills gx (whose dims give the input geometry) first.
/// Aliasing: gx must not overlap grad_out.
Tensor maxpool2d_backward(const Tensor& grad_out,
                          const std::vector<std::int64_t>& argmax,
                          const Shape& input_shape);
void maxpool2d_backward_into(ConstTensorView grad_out,
                             std::span<const std::int64_t> argmax,
                             TensorView gx);

/// Global average pool: (N, C, H, W) -> (N, C).
/// Aliasing: y must not overlap x.
Tensor global_avgpool_forward(const Tensor& x);
void global_avgpool_forward_into(ConstTensorView x, TensorView y);

/// Backward of global average pool; gx carries the input geometry.
/// Aliasing: gx must not overlap grad_out.
Tensor global_avgpool_backward(const Tensor& grad_out,
                               const Shape& input_shape);
void global_avgpool_backward_into(ConstTensorView grad_out, TensorView gx);

}  // namespace fhdnn::ops
