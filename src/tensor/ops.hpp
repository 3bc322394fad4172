// Free-function math on tensors: elementwise ops, matmul, reductions.
//
// Conventions: 2-d tensors are (rows, cols) row-major; batched activations
// are (N, features) or (N, C, H, W). Functions validate shapes and throw
// fhdnn::Error on mismatch.
//
// Every kernel writes into a caller-owned output view (the `_into` form):
// the output comes from a Tensor buffer the caller keeps, or from a
// util::Workspace arena, so no kernel allocates. Each runs the same loops in
// the same order with the same parallel grain at every thread count, so its
// results are bit-identical across thread counts (see util/parallel.hpp).
//
// Aliasing: elementwise kernels (add, scale, the relu family, softmax_rows)
// read each element before writing it and therefore accept out aliasing an
// input. The matmul family, transpose, and sum_rows read inputs after
// writing out and CHECK that out does not overlap an input.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"
#include "tensor/view.hpp"

namespace fhdnn::ops {

/// c = a + b (elementwise, same shape).
/// Aliasing: out may alias a and/or b (each element is read before written).
void add_into(ConstTensorView a, ConstTensorView b, TensorView out);
/// c = a * alpha.
/// Aliasing: out may alias a (in-place scale).
void scale_into(ConstTensorView a, float alpha, TensorView out);

/// y += x elementwise (same numel). The parameter-gradient accumulation
/// primitive; bit-identical to Tensor::axpy(1.0F, x).
void accumulate(TensorView y, ConstTensorView x);

/// Matrix product of a (m x k) and b (k x n) -> (m x n). Each output is one
/// float chain c = c + a * b from +0.0F in ascending k, run on the
/// dispatched lane-mapped GEMM kernel (util/simd.hpp), so every SIMD tier
/// and thread count gives the same bits.
/// Aliasing: out must not overlap a or b (throws on overlap).
void matmul_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// Matrix product with b transposed: a (m x k) * b^T where b is (n x k).
/// Each output element is one sequential double sum over kk ascending,
/// rounded to float once (the reduction the hexfloat goldens pin). The
/// smaller of a and b is packed into the calling thread's workspace for
/// the lane-mapped kernel (DESIGN.md §11).
/// Aliasing: out must not overlap a or b (throws on overlap).
void matmul_bt_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// Lays rows [0, lanes) of the row-major matrix src (row stride src_rs)
/// out as the k-major panel of the lane-mapped kernels (util/simd.hpp
/// GemmArgs): panel[kk * p_ks + l] = src[l * src_rs + col(kk)] for kk < k,
/// widened exactly to the panel's type, where col(kk) = cols[kk], or kk
/// when cols is null. Lanes [lanes, p_ks) of a panel row are not written.
/// With sq non-null, sq[l] gets row l's squared norm over the same
/// columns: one double chain per row from +0.0 in ascending kk. Rows go
/// eight at a time, eight chains in flight. Raw-pointer kernel for callers
/// that have validated their shapes; nothing may overlap.
void pack_panel(const float* src, std::int64_t src_rs, std::int64_t lanes,
                std::int64_t k, const std::int64_t* cols, float* panel,
                std::int64_t p_ks, double* sq = nullptr);
void pack_panel(const float* src, std::int64_t src_rs, std::int64_t lanes,
                std::int64_t k, const std::int64_t* cols, double* panel,
                std::int64_t p_ks, double* sq = nullptr);

/// Matrix product with a transposed: a^T * b where a is (k x m), b is (k x n).
/// Same per-output float chain as matmul_into.
/// Aliasing: out must not overlap a or b (throws on overlap).
void matmul_at_into(ConstTensorView a, ConstTensorView b, TensorView out);
/// out += a^T * b: each element becomes out + the chain matmul_at_into
/// would store, the bits of matmul_at_into into scratch followed by
/// accumulate (the GEMM's store-add mode, util/simd.hpp GemmArgs::add).
/// A layer adds its weight gradient into Parameter::grad this way.
/// Aliasing: out must not overlap a or b (throws on overlap).
void matmul_at_add_into(ConstTensorView a, ConstTensorView b, TensorView out);

/// Transpose of a 2-d tensor.
/// Aliasing: out must not overlap a (throws on overlap).
// fhdnn-lint: allow(test-only-api) builds the matmul_at/_bt test operands
void transpose_into(ConstTensorView a, TensorView out);

/// y = x * W^T + bias for batched rows: x (N x in), W (out x in), bias (out).
/// Aliasing: out must not overlap x, weight, or bias (throws on overlap).
void linear_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, TensorView out);

/// Row-wise argmax of a 2-d tensor -> one index per row. Ties go to the
/// first maximum; a NaN past the first column never wins.
/// Aliasing: out holds indices, so it cannot overlap logits.
void argmax_rows_into(ConstTensorView logits, std::span<std::int64_t> out);

/// Row-wise softmax of a 2-d tensor (numerically stabilized).
/// Aliasing: out may alias logits (row max is taken before any write).
void softmax_rows_into(ConstTensorView logits, TensorView out);

/// Sum over dimension 0 of a 2-d tensor -> 1-d of size cols: one float
/// chain per column from +0.0F in ascending row order, one SIMD lane per
/// column (util/simd.hpp col_sums_f32).
/// Aliasing: out must not overlap a (throws on overlap).
void sum_rows_into(ConstTensorView a, TensorView out);

/// Elementwise ReLU and its mask-based backward.
/// Aliasing: out may alias x.
void relu_into(ConstTensorView x, TensorView out);
/// grad_in = grad_out where x > 0 or x is NaN, else +0. x may be the
/// forward's output instead of its input: relu keeps every x > 0 and every
/// NaN and maps the rest to a zero, so the mask is the same.
/// Aliasing: out may alias grad_out and/or x.
void relu_backward_into(ConstTensorView grad_out, ConstTensorView x,
                        TensorView out);

}  // namespace fhdnn::ops
