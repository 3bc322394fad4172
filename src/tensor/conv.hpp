// Convolution and pooling primitives (im2col based).
//
// Layouts: activations are (N, C, H, W); conv weights are
// (out_channels, in_channels, kh, kw); pooling is per-channel.
//
// Like tensor/ops.hpp, every kernel writes into caller-owned output views
// (the `_into` form) and allocates nothing: scratch comes from a
// util::Workspace arena, the caller's or the calling thread's.
#pragma once

#include <cstdint>
#include <span>

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
void im2col_into(ConstTensorView x, const Conv2dSpec& spec, TensorView cols);

/// Fold columns back, accumulating overlaps — adjoint of im2col. `n`, `h`,
/// `w` give the original input geometry. Zero-fills the output image first.
/// Aliasing: x must not overlap cols (throws on overlap).
void col2im_into(ConstTensorView cols, const Conv2dSpec& spec, std::int64_t n,
                 std::int64_t h, std::int64_t w, TensorView x);

/// y = conv2d(x, weight) + bias. weight is (OC, IC, k, k), bias is (OC).
/// Both forms draw their matmul scratch from `ws` (rewound on return via a
/// Workspace::Scope). The first keeps im2col(x) in the caller's `cols`
/// ((N * out_h * out_w, IC * k * k)), which the backward consumes; the
/// second unfolds into `ws`.
/// Aliasing: y and cols must not overlap x, weight, bias or each other.
void conv2d_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, const Conv2dSpec& spec,
                         TensorView y, TensorView cols, util::Workspace& ws);
void conv2d_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, const Conv2dSpec& spec,
                         TensorView y, util::Workspace& ws);

/// Gradients of conv2d given upstream grad_out (N, OC, oh, ow) and the
/// forward's im2col `cols` (as conv2d_forward_into's `cols` form left it).
/// Adds the weight and bias gradients into grad_weight and grad_bias (a
/// layer passes its Parameter::grad buffers): each element becomes g +
/// the gradient's float chain, the bits of a separate ops::accumulate.
/// Overwrites `grad_input`, which carries the input geometry; null skips
/// the input gradient (its matmuls and fold) for a caller that never reads
/// it. At stride 1 the input gradient is built one image at a time, so the
/// workspace holds one image's columns, never the batch's.
/// Aliasing: the grad outputs must not overlap cols, the inputs or each
/// other.
void conv2d_backward_from_cols_into(ConstTensorView grad_out,
                                    ConstTensorView cols,
                                    ConstTensorView weight,
                                    const Conv2dSpec& spec,
                                    TensorView* grad_input,
                                    TensorView grad_weight,
                                    TensorView grad_bias, util::Workspace& ws);

/// 2x2 (or kxk) max pooling with stride == kernel (>= 1).
/// Writes the pooled output and the flat argmax index per output element
/// (into the input tensor) for the backward pass. Ties go to the first
/// maximum in row-major window order; a window holding NaN outputs NaN
/// with its first NaN as argmax.
/// Aliasing: out must not overlap x.
void maxpool2d_forward_into(ConstTensorView x, std::int64_t kernel,
                            TensorView out, std::span<std::int64_t> argmax);

/// Scatter upstream grads through the recorded argmax indices. Zero-fills
/// gx (whose dims give the input geometry) first.
/// Aliasing: gx must not overlap grad_out.
void maxpool2d_backward_into(ConstTensorView grad_out,
                             std::span<const std::int64_t> argmax,
                             TensorView gx);

/// Global average pool: (N, C, H, W) -> (N, C).
/// Aliasing: y must not overlap x.
void global_avgpool_forward_into(ConstTensorView x, TensorView y);

/// Backward of global average pool; gx carries the input geometry.
/// Aliasing: gx must not overlap grad_out.
void global_avgpool_backward_into(ConstTensorView grad_out, TensorView gx);

}  // namespace fhdnn::ops
