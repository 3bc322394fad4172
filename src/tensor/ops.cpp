#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/workspace.hpp"

namespace fhdnn::ops {

namespace {

void check_2d(ConstTensorView a, const char* op) {
  FHDNN_CHECK(a.ndim() == 2, op << " expects a 2-d tensor, got "
                                << a.shape_string());
}

void check_same_dims(ConstTensorView a, ConstTensorView b, const char* op) {
  bool same = a.ndim() == b.ndim();
  for (std::int64_t i = 0; same && i < a.ndim(); ++i) {
    same = a.dim(i) == b.dim(i);
  }
  FHDNN_CHECK(same, op << " shape mismatch: " << a.shape_string() << " vs "
                       << b.shape_string());
}

void check_no_alias(TensorView out, ConstTensorView in, const char* op) {
  FHDNN_CHECK(!views_overlap(out, in),
              op << " output must not alias an input");
}


/// FHDNN_CHECKED entry guard for `_into` kernels: views must be live (a
/// moved-from or default-constructed Tensor yields a null data pointer the
/// shape checks alone cannot distinguish from a valid buffer).
template <typename... Views>
void checked_entry(const char* op, const Views&... views) {
  (void)op;
  FHDNN_CHECKED_ASSERT(((views.data() != nullptr) && ...),
                       op << "_into kernel received a null view");
}

}  // namespace

void add_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("add", a, b, out);
  check_same_dims(a, b, "add");
  check_same_dims(a, out, "add");
  simd::kernels().add_f32(out.data(), a.data(), b.data(), a.numel());
}

void scale_into(ConstTensorView a, float alpha, TensorView out) {
  checked_entry("scale", a, out);
  check_same_dims(a, out, "scale");
  simd::kernels().scale_f32(out.data(), a.data(), alpha, a.numel());
}

void accumulate(TensorView y, ConstTensorView x) {
  checked_entry("accumulate", y, x);
  FHDNN_CHECK(y.numel() == x.numel(),
              "accumulate numel mismatch: " << y.shape_string() << " vs "
                                            << x.shape_string());
  // y += 1.0f * x via the dispatched axpy: the multiply by 1.0f is exact
  // for every float (including NaN/Inf), so this is the same op sequence
  // the plain += loop performed.
  simd::kernels().axpy_f32(y.data(), 1.0F, x.data(), y.numel());
}

namespace {

/// Runs one lane-mapped GEMM (util/simd.hpp GemmArgs), splitting the rows
/// across the pool. Every output element is computed whole by one kernel
/// call, in the same chain whatever the chunking, so the parallel result is
/// bit-identical to the serial one. The grain of at least 8 rows (the
/// kernels' tallest tile) keeps most chunks to full tiles.
template <typename Panel>
void run_gemm(void (*kernel)(const simd::GemmArgs<Panel>&),
              const simd::GemmArgs<Panel>& g) {
  const std::int64_t grain =
      std::max<std::int64_t>(8, parallel::grain_for(g.lanes * g.k));
  parallel::parallel_for(0, g.rows, grain,
                         [&](std::int64_t r0, std::int64_t r1) {
    simd::GemmArgs<Panel> part = g;
    part.x += r0 * g.x_rs;
    part.c += r0 * g.c_rs;
    part.rows = r1 - r0;
    kernel(part);
  });
}

/// Columns [k0, k1) of the R rows at src into panel lanes [0, R),
/// advancing the rows' squared-norm chains in sq (Sq). The R chains run
/// interleaved in registers.
template <int R, bool Cols, bool Sq, typename Panel>
void pack_rows(const float* src, std::int64_t src_rs, const std::int64_t* cols,
               std::int64_t k0, std::int64_t k1, Panel* panel,
               std::int64_t p_ks, double* sq) {
  [[maybe_unused]] double acc[R];
  if constexpr (Sq) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[r] = sq[r];
  }
  for (std::int64_t kk = k0; kk < k1; ++kk) {
    const std::int64_t j = Cols ? cols[kk] : kk;
    Panel* out = panel + kk * p_ks;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const float v = src[r * src_rs + j];
      out[r] = v;
      if constexpr (Sq) acc[r] += static_cast<double>(v) * v;
    }
  }
  if constexpr (Sq) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) sq[r] = acc[r];
  }
}

/// pack_rows for the rows left over after the groups of eight: the widest
/// instantiation not above `rows`.
template <bool Cols, bool Sq, int R = 7, typename Panel>
void pack_tail_rows(std::int64_t rows, const float* src, std::int64_t src_rs,
                    const std::int64_t* cols, std::int64_t k0,
                    std::int64_t k1, Panel* panel, std::int64_t p_ks,
                    double* sq) {
  if constexpr (R > 1) {
    if (rows < R) {
      pack_tail_rows<Cols, Sq, R - 1>(rows, src, src_rs, cols, k0, k1, panel,
                                      p_ks, sq);
      return;
    }
  }
  pack_rows<R, Cols, Sq>(src, src_rs, cols, k0, k1, panel, p_ks, sq);
}

/// Column blocks keep a panel block cache-resident while the rows go into
/// it eight at a time.
template <bool Cols, bool Sq, typename Panel>
void pack_blocks(const float* src, std::int64_t src_rs, std::int64_t lanes,
                 std::int64_t k, const std::int64_t* cols, Panel* panel,
                 std::int64_t p_ks, double* sq) {
  constexpr std::int64_t kBlock = 512;
  if constexpr (Sq) std::fill(sq, sq + lanes, 0.0);
  for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
    const std::int64_t k1 = std::min(k, k0 + kBlock);
    std::int64_t l = 0;
    for (; l + 8 <= lanes; l += 8) {
      pack_rows<8, Cols, Sq>(src + l * src_rs, src_rs, cols, k0, k1,
                             panel + l, p_ks, sq + l);
    }
    if (l < lanes) {
      pack_tail_rows<Cols, Sq>(lanes - l, src + l * src_rs, src_rs, cols, k0,
                               k1, panel + l, p_ks, sq + l);
    }
  }
}

template <typename Panel>
void pack_any(const float* src, std::int64_t src_rs, std::int64_t lanes,
              std::int64_t k, const std::int64_t* cols, Panel* panel,
              std::int64_t p_ks, double* sq) {
  if (cols != nullptr) {
    sq != nullptr
        ? pack_blocks<true, true>(src, src_rs, lanes, k, cols, panel, p_ks, sq)
        : pack_blocks<true, false>(src, src_rs, lanes, k, cols, panel, p_ks,
                                   sq);
  } else {
    sq != nullptr
        ? pack_blocks<false, true>(src, src_rs, lanes, k, cols, panel, p_ks,
                                   sq)
        : pack_blocks<false, false>(src, src_rs, lanes, k, cols, panel, p_ks,
                                    sq);
  }
}

}  // namespace

void pack_panel(const float* src, std::int64_t src_rs, std::int64_t lanes,
                std::int64_t k, const std::int64_t* cols, float* panel,
                std::int64_t p_ks, double* sq) {
  pack_any(src, src_rs, lanes, k, cols, panel, p_ks, sq);
}

void pack_panel(const float* src, std::int64_t src_rs, std::int64_t lanes,
                std::int64_t k, const std::int64_t* cols, double* panel,
                std::int64_t p_ks, double* sq) {
  pack_any(src, src_rs, lanes, k, cols, panel, p_ks, sq);
}

void matmul_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("matmul", a, b, out);
  check_2d(a, "matmul");
  check_2d(b, "matmul");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  FHDNN_CHECK(b.dim(0) == k, "matmul inner dims: " << a.shape_string() << " x "
                                                   << b.shape_string());
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == m && out.dim(1) == n,
              "matmul output shape " << out.shape_string());
  check_no_alias(out, a, "matmul");
  check_no_alias(out, b, "matmul");
  // Lanes run over columns straight from b, which is already the k-major
  // panel: no packing, and every tile stores contiguous rows of out.
  run_gemm(simd::kernels().gemm_axpy_f32,
           {.x = a.data(), .x_rs = k, .x_ks = 1, .p = b.data(), .p_ks = n,
            .c = out.data(), .c_rs = n, .c_ls = 1, .rows = m, .lanes = n,
            .k = k});
}

void matmul_bt_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("matmul_bt", a, b, out);
  check_2d(a, "matmul_bt");
  check_2d(b, "matmul_bt");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  FHDNN_CHECK(b.dim(1) == k, "matmul_bt inner dims: " << a.shape_string()
                                                      << " x "
                                                      << b.shape_string()
                                                      << "^T");
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == m && out.dim(1) == n,
              "matmul_bt output shape " << out.shape_string());
  check_no_alias(out, a, "matmul_bt");
  check_no_alias(out, b, "matmul_bt");
  // Lanes run over the smaller output dimension, and that side's operand
  // is packed k-major and widened to double: b^T when lanes are columns,
  // a^T when they are rows (the kernel then writes out transposed).
  const bool lanes_are_cols = n <= m;
  const std::int64_t lanes = lanes_are_cols ? n : m;
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  double* panel = ws.doubles(k * lanes);
  pack_panel(lanes_are_cols ? b.data() : a.data(), k, lanes, k, nullptr,
             panel, lanes);
  run_gemm(simd::kernels().gemm_dot_f64,
           {.x = lanes_are_cols ? a.data() : b.data(), .x_rs = k, .x_ks = 1,
            .p = panel, .p_ks = lanes, .c = out.data(),
            .c_rs = lanes_are_cols ? n : 1, .c_ls = lanes_are_cols ? 1 : n,
            .rows = lanes_are_cols ? m : n, .lanes = lanes, .k = k});
}

namespace {

/// matmul_at_into and matmul_at_add_into: `add` picks the GEMM's store.
void matmul_at(ConstTensorView a, ConstTensorView b, TensorView out,
               bool add) {
  checked_entry("matmul_at", a, b, out);
  check_2d(a, "matmul_at");
  check_2d(b, "matmul_at");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  FHDNN_CHECK(b.dim(0) == k, "matmul_at inner dims: " << a.shape_string()
                                                      << "^T x "
                                                      << b.shape_string());
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == m && out.dim(1) == n,
              "matmul_at output shape " << out.shape_string());
  check_no_alias(out, a, "matmul_at");
  check_no_alias(out, b, "matmul_at");
  // As in matmul_into, lanes run over columns straight from b; row i
  // broadcasts column i of a.
  run_gemm(simd::kernels().gemm_axpy_f32,
           {.x = a.data(), .x_rs = 1, .x_ks = m, .p = b.data(), .p_ks = n,
            .c = out.data(), .c_rs = n, .c_ls = 1, .rows = m, .lanes = n,
            .k = k, .add = add});
}

}  // namespace

void matmul_at_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  matmul_at(a, b, out, false);
}

void matmul_at_add_into(ConstTensorView a, ConstTensorView b,
                        TensorView out) {
  matmul_at(a, b, out, true);
}

void transpose_into(ConstTensorView a, TensorView out) {
  checked_entry("transpose", a, out);
  check_2d(a, "transpose");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == n && out.dim(1) == m,
              "transpose output shape " << out.shape_string());
  check_no_alias(out, a, "transpose");
  simd::kernels().transpose_f32(out.data(), a.data(), m, n);
}

void linear_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, TensorView out) {
  checked_entry("linear_forward", x, weight, bias, out);
  check_2d(x, "linear_forward");
  check_2d(weight, "linear_forward");
  FHDNN_CHECK(bias.ndim() == 1 && bias.dim(0) == weight.dim(0),
              "linear bias shape " << bias.shape_string());
  check_no_alias(out, bias, "linear_forward");
  matmul_bt_into(x, weight, out);
  const std::int64_t n = out.dim(0), cols = out.dim(1);
  float* py = out.data();
  const float* pb = bias.data();
  const auto axpy = simd::kernels().axpy_f32;
  parallel::parallel_for(0, n, parallel::grain_for(cols),
                         [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      // row += 1.0f * bias — the 1.0f multiply is exact, so this matches
      // the former plain += loop bit-for-bit.
      axpy(py + i * cols, 1.0F, pb, cols);
    }
  });
}

void argmax_rows_into(ConstTensorView logits, std::span<std::int64_t> out) {
  checked_entry("argmax_rows", logits);
  check_2d(logits, "argmax_rows");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  FHDNN_CHECK(static_cast<std::int64_t>(out.size()) == n,
              "argmax_rows output size " << out.size() << " for " << n
                                         << " rows");
  const float* pl = logits.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = pl + i * c;
    std::int64_t best = 0;
    float best_v = row[0];
    for (std::int64_t j = 1; j < c; ++j) {
      if (row[j] > best_v) {
        best_v = row[j];
        best = j;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
}

void softmax_rows_into(ConstTensorView logits, TensorView out) {
  checked_entry("softmax_rows", logits, out);
  check_2d(logits, "softmax_rows");
  check_same_dims(logits, out, "softmax_rows");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  const float* pl = logits.data();
  float* pp = out.data();
  parallel::parallel_for(0, n, parallel::grain_for(4 * c),
                         [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* lrow = pl + i * c;
      float* prow = pp + i * c;
      float mx = lrow[0];
      for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, lrow[j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < c; ++j) {
        const float e = std::exp(lrow[j] - mx);
        prow[j] = e;
        z += e;
      }
      const float inv = static_cast<float>(1.0 / z);
      for (std::int64_t j = 0; j < c; ++j) prow[j] *= inv;
    }
  });
}

void sum_rows_into(ConstTensorView a, TensorView out) {
  checked_entry("sum_rows", a, out);
  check_2d(a, "sum_rows");
  const std::int64_t n = a.dim(0), c = a.dim(1);
  FHDNN_CHECK(out.ndim() == 1 && out.dim(0) == c,
              "sum_rows output shape " << out.shape_string());
  check_no_alias(out, a, "sum_rows");
  // +0.0F plus a chain from +0.0F is the chain: it is never -0.0F.
  std::fill(out.data(), out.data() + out.numel(), 0.0F);
  simd::kernels().col_sums_f32(out.data(), a.data(), n, c);
}

// relu and its backward dispatch the compare-mask select kernels
// (util/simd.hpp): a vector max instruction would not keep
// std::max(x, 0.0F)'s NaN and -0.0F results, the mask does in every tier.
void relu_into(ConstTensorView x, TensorView out) {
  checked_entry("relu", x, out);
  FHDNN_CHECK(x.numel() == out.numel(),
              "relu output shape " << out.shape_string());
  const float* px = x.data();
  float* po = out.data();
  const auto relu = simd::kernels().relu_f32;
  parallel::parallel_for(0, x.numel(), parallel::grain_for(1),
                         [&](std::int64_t i0, std::int64_t i1) {
    relu(po + i0, px + i0, i1 - i0);
  });
}

void relu_backward_into(ConstTensorView grad_out, ConstTensorView x,
                        TensorView out) {
  checked_entry("relu_backward", grad_out, x, out);
  check_same_dims(grad_out, x, "relu_backward");
  FHDNN_CHECK(grad_out.numel() == out.numel(),
              "relu_backward output shape " << out.shape_string());
  const float* pg = grad_out.data();
  const float* px = x.data();
  float* po = out.data();
  const auto relu_backward = simd::kernels().relu_backward_f32;
  parallel::parallel_for(0, grad_out.numel(), parallel::grain_for(1),
                         [&](std::int64_t i0, std::int64_t i1) {
    relu_backward(po + i0, pg + i0, px + i0, i1 - i0);
  });
}

}  // namespace fhdnn::ops
