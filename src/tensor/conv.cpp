#include "tensor/conv.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "tensor/ops.hpp"

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/workspace.hpp"

namespace fhdnn::ops {

namespace {

void check_nchw(ConstTensorView x, const char* op) {
  FHDNN_CHECK(x.ndim() == 4, op << " expects (N,C,H,W), got "
                                << x.shape_string());
}

void check_weight(ConstTensorView weight, const Conv2dSpec& spec,
                  const char* op) {
  FHDNN_CHECK(weight.ndim() == 4 && weight.dim(0) == spec.out_channels &&
                  weight.dim(1) == spec.in_channels &&
                  weight.dim(2) == spec.kernel && weight.dim(3) == spec.kernel,
              op << " weight shape " << weight.shape_string());
}

/// [lo, hi) of the output positions o < out whose kernel tap at offset
/// `off` (tap index minus padding) lands inside an input of size `in`:
/// 0 <= o * stride + off < in.
std::pair<std::int64_t, std::int64_t> tap_span(std::int64_t off,
                                               std::int64_t stride,
                                               std::int64_t in,
                                               std::int64_t out) {
  const std::int64_t lo = off >= 0 ? 0 : (stride - 1 - off) / stride;
  const std::int64_t hi =
      in - off <= 0 ? 0 : std::min(out, (in - off - 1) / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// A pooling candidate: an element's value and its index in the plane.
struct PoolPick {
  float value;
  std::int64_t index;
};

/// `b` if it beats `a` — strictly greater, or a NaN over a number — else
/// `a`: the earlier of two equal candidates wins, and so does the earlier
/// of two NaNs. Selected through an all-ones mask, not a branch.
PoolPick first_max(PoolPick a, PoolPick b) {
  const auto take = static_cast<std::uint32_t>(
      (b.value > a.value) + (std::isnan(b.value) && !std::isnan(a.value)));
  const std::uint32_t m = 0U - take;
  return {std::bit_cast<float>((std::bit_cast<std::uint32_t>(b.value) & m) |
                               (std::bit_cast<std::uint32_t>(a.value) & ~m)),
          a.index ^ ((a.index ^ b.index) & -static_cast<std::int64_t>(take))};
}

/// The first maximum, in row-major order, of the k x k window whose
/// top-left element is chan[first] in a plane `w` wide, with a NaN above
/// every number and the first NaN kept. That is a leftmost maximum, so
/// folding each row and then the rows picks the same element as one scan
/// would.
PoolPick window_max(const float* chan, std::int64_t first, std::int64_t w,
                    std::int64_t k) {
  const auto row_max = [&](std::int64_t row) {
    PoolPick best{chan[row], row};
    for (std::int64_t kx = 1; kx < k; ++kx) {
      best = first_max(best, {chan[row + kx], row + kx});
    }
    return best;
  };
  PoolPick best = row_max(first);
  for (std::int64_t ky = 1; ky < k; ++ky) {
    best = first_max(best, row_max(first + ky * w));
  }
  return best;
}

/// Where im2col reads its patches: `channels` planes of `plane` floats per
/// image, rows `row` floats apart, already zero-padded.
struct PatchGeometry {
  std::int64_t channels, plane, row, oh, ow, kernel, stride;
};

/// Writes im2col rows [r0, r1) from padded planes at `src`. The chunk's
/// first row is decomposed once; later rows step (ox, oy, image) like an
/// odometer. K > 0 fixes the kernel size at compile time so the tap
/// copies unroll; K = 0 reads it from `g`.
template <std::int64_t K>
void fill_patch_rows(const PatchGeometry& g, const float* src,
                     std::int64_t r0, std::int64_t r1, float* cols) {
  const std::int64_t k = K > 0 ? K : g.kernel;
  std::int64_t in = r0 / (g.oh * g.ow);
  std::int64_t oy = (r0 / g.ow) % g.oh;
  std::int64_t ox = r0 % g.ow;
  float* dst = cols + r0 * g.channels * k * k;
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* patch = src + in * g.channels * g.plane +
                         (oy * g.row + ox) * g.stride;
    for (std::int64_t ic = 0; ic < g.channels; ++ic) {
      const float* tap = patch + ic * g.plane;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        for (std::int64_t kx = 0; kx < k; ++kx) *dst++ = tap[kx];
        if (ky + 1 < k) tap += g.row;  // stays inside the padded planes
      }
    }
    if (++ox == g.ow) {
      ox = 0;
      if (++oy == g.oh) {
        oy = 0;
        ++in;
      }
    }
  }
}

/// FHDNN_CHECKED entry guard (same contract as ops.cpp): `_into` kernels
/// must receive live views.
template <typename... Views>
void checked_entry(const char* op, const Views&... views) {
  (void)op;
  FHDNN_CHECKED_ASSERT(((views.data() != nullptr) && ...),
                       op << "_into kernel received a null view");
}

}  // namespace

void im2col_into(ConstTensorView x, const Conv2dSpec& spec, TensorView cols) {
  checked_entry("im2col", x, cols);
  check_nchw(x, "im2col");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  FHDNN_CHECK(c == spec.in_channels, "im2col channels " << c << " != spec "
                                                        << spec.in_channels);
  const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
  FHDNN_CHECK(oh > 0 && ow > 0, "conv output collapsed to zero");
  const std::int64_t k = spec.kernel;
  const std::int64_t row_len = c * k * k;
  FHDNN_CHECK(cols.ndim() == 2 && cols.dim(0) == n * oh * ow &&
                  cols.dim(1) == row_len,
              "im2col output shape " << cols.shape_string());
  FHDNN_CHECK(!views_overlap(cols, x),
              "im2col output must not alias the input");
  const std::int64_t p = spec.padding;
  const float* src = x.data();
  std::int64_t hp = h, wp = w;
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  if (p > 0) {
    // Copy each plane into a zero border of width p first, so that no tap
    // below needs a bounds test.
    hp = h + 2 * p;
    wp = w + 2 * p;
    float* padded = ws.floats(n * c * hp * wp);
    const float* px = x.data();
    parallel::parallel_for(0, n * c, parallel::grain_for(hp * wp),
                           [&](std::int64_t p0, std::int64_t p1) {
      for (std::int64_t plane = p0; plane < p1; ++plane) {
        float* dst = padded + plane * hp * wp;
        const float* rows = px + plane * h * w;
        std::fill(dst, dst + p * wp, 0.0F);
        for (std::int64_t y = 0; y < h; ++y) {
          float* row = dst + (y + p) * wp;
          std::fill(row, row + p, 0.0F);
          std::copy(rows + y * w, rows + (y + 1) * w, row + p);
          std::fill(row + p + w, row + wp, 0.0F);
        }
        std::fill(dst + (h + p) * wp, dst + hp * wp, 0.0F);
      }
    });
    src = padded;
  }
  const PatchGeometry g{c, hp * wp, wp, oh, ow, k, spec.stride};
  float* pc = cols.data();
  // One chunk owns a contiguous span of output rows (each row is one
  // (image, oy, ox) patch), so the parallel fill is race-free.
  parallel::parallel_for(0, n * oh * ow, parallel::grain_for(row_len),
                         [&](std::int64_t r0, std::int64_t r1) {
    if (k == 3) {
      fill_patch_rows<3>(g, src, r0, r1, pc);
    } else {
      fill_patch_rows<0>(g, src, r0, r1, pc);
    }
  });
}

void col2im_into(ConstTensorView cols, const Conv2dSpec& spec, std::int64_t n,
                 std::int64_t h, std::int64_t w, TensorView x) {
  checked_entry("col2im", cols, x);
  const std::int64_t c = spec.in_channels;
  const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
  const std::int64_t k = spec.kernel;
  FHDNN_CHECK(cols.ndim() == 2 && cols.dim(0) == n * oh * ow &&
                  cols.dim(1) == c * k * k,
              "col2im shape " << cols.shape_string());
  FHDNN_CHECK(x.ndim() == 4 && x.dim(0) == n && x.dim(1) == c &&
                  x.dim(2) == h && x.dim(3) == w,
              "col2im output shape " << x.shape_string());
  FHDNN_CHECK(!views_overlap(x, cols),
              "col2im output must not alias the input");
  std::fill(x.data(), x.data() + x.numel(), 0.0F);
  const float* pc = cols.data();
  float* px = x.data();
  const std::int64_t row_len = c * k * k;
  const std::int64_t s = spec.stride, p = spec.padding;
  // Patches overlap within one image, so the accumulation is parallel over
  // images only — each image's scatter region is disjoint. The kernel taps
  // (ky, kx) are walked in descending order outside the spans of output
  // positions that hit the input: a larger tap means a smaller output
  // position for the same input element, so every element still receives
  // its contributions in ascending (oy, ox) order, as a walk over the
  // patches would add them.
  parallel::parallel_for(0, n, parallel::grain_for(oh * ow * row_len),
                         [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in = n0; in < n1; ++in) {
      const float* img = pc + in * oh * ow * row_len;
      for (std::int64_t ic = 0; ic < c; ++ic) {
        float* chan = px + (in * c + ic) * h * w;
        for (std::int64_t ky = k - 1; ky >= 0; --ky) {
          const auto [oy0, oy1] = tap_span(ky - p, s, h, oh);
          for (std::int64_t kx = k - 1; kx >= 0; --kx) {
            const auto [ox0, ox1] = tap_span(kx - p, s, w, ow);
            const float* col = img + (ic * k + ky) * k + kx;
            for (std::int64_t oy = oy0; oy < oy1; ++oy) {
              const std::int64_t base = (oy * s + ky - p) * w + kx - p;
              const float* src = col + oy * ow * row_len;
              for (std::int64_t ox = ox0; ox < ox1; ++ox) {
                chan[base + ox * s] += src[ox * row_len];
              }
            }
          }
        }
      }
    }
  });
}

void conv2d_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, const Conv2dSpec& spec,
                         TensorView y, TensorView cols, util::Workspace& ws) {
  checked_entry("conv2d_forward", x, weight, bias, y, cols);
  check_nchw(x, "conv2d");
  check_weight(weight, spec, "conv2d");
  FHDNN_CHECK(bias.ndim() == 1 && bias.dim(0) == spec.out_channels,
              "conv2d bias shape " << bias.shape_string());
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
  const std::int64_t oc = spec.out_channels;
  const std::int64_t ckk = spec.in_channels * spec.kernel * spec.kernel;
  FHDNN_CHECK(y.ndim() == 4 && y.dim(0) == n && y.dim(1) == oc &&
                  y.dim(2) == oh && y.dim(3) == ow,
              "conv2d output shape " << y.shape_string());
  im2col_into(x, spec, cols);
  const util::Workspace::Scope scope(ws);
  // matmul_bt's chains, one image at a time: lanes over output channels
  // from the (OC, IC*k*k) weight matrix packed k-major and widened to
  // double once, each image's patch rows streamed past it, and the tile
  // stored transposed (c_rs = 1), straight into the image's NCHW planes.
  double* panel = ws.doubles(ckk * oc);
  pack_panel(weight.data(), ckk, oc, ckk, nullptr, panel, oc);
  const std::int64_t plane = oh * ow;
  const float* pc = cols.data();
  const float* pb = bias.data();
  float* py = y.data();
  const auto gemm = simd::kernels().gemm_dot_f64;
  const auto add_bias = simd::kernels().add_bias_f32;
  parallel::parallel_for(
      0, n, parallel::grain_for(plane * oc * ckk),
      [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in = n0; in < n1; ++in) {
      float* img = py + in * oc * plane;
      gemm({.x = pc + in * plane * ckk, .x_rs = ckk, .x_ks = 1, .p = panel,
            .p_ks = oc, .c = img, .c_rs = 1, .c_ls = plane, .rows = plane,
            .lanes = oc, .k = ckk});
      for (std::int64_t c = 0; c < oc; ++c) {
        add_bias(img + c * plane, pb[c], plane);
      }
    }
  });
}

void conv2d_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, const Conv2dSpec& spec,
                         TensorView y, util::Workspace& ws) {
  check_nchw(x, "conv2d");
  const std::int64_t rows =
      x.dim(0) * spec.out_size(x.dim(2)) * spec.out_size(x.dim(3));
  FHDNN_CHECK(rows > 0, "conv output collapsed to zero");
  const util::Workspace::Scope scope(ws);
  const std::int64_t ckk = spec.in_channels * spec.kernel * spec.kernel;
  conv2d_forward_into(x, weight, bias, spec, y,
                      TensorView(ws.floats(rows * ckk), {rows, ckk}), ws);
}

void conv2d_backward_from_cols_into(ConstTensorView grad_out,
                                    ConstTensorView cols,
                                    ConstTensorView weight,
                                    const Conv2dSpec& spec,
                                    TensorView* grad_input,
                                    TensorView grad_weight,
                                    TensorView grad_bias, util::Workspace& ws) {
  checked_entry("conv2d_backward_from_cols", grad_out, cols, weight,
                grad_weight, grad_bias);
  FHDNN_CHECKED_ASSERT(
      grad_input == nullptr || grad_input->data() != nullptr,
      "conv2d_backward_from_cols_into kernel received a null view");
  check_nchw(grad_out, "conv2d_backward");
  check_weight(weight, spec, "conv2d_backward");
  const std::int64_t n = grad_out.dim(0), oh = grad_out.dim(2),
                     ow = grad_out.dim(3);
  const std::int64_t oc = spec.out_channels;
  const std::int64_t ckk = spec.in_channels * spec.kernel * spec.kernel;
  const std::int64_t rows = n * oh * ow;
  FHDNN_CHECK(grad_out.dim(1) == oc, "conv2d_backward grad shape "
                                         << grad_out.shape_string());
  FHDNN_CHECK(cols.ndim() == 2 && cols.dim(0) == rows && cols.dim(1) == ckk,
              "conv2d_backward cols shape " << cols.shape_string()
                                            << " for grad "
                                            << grad_out.shape_string());
  FHDNN_CHECK(grad_weight.numel() == weight.numel(),
              "conv2d_backward grad_weight shape "
                  << grad_weight.shape_string());
  FHDNN_CHECK(grad_bias.numel() == oc, "conv2d_backward grad_bias shape "
                                           << grad_bias.shape_string());
  FHDNN_CHECK(grad_input == nullptr ||
                  (grad_input->ndim() == 4 && grad_input->dim(0) == n &&
                   grad_input->dim(1) == spec.in_channels &&
                   spec.out_size(grad_input->dim(2)) == oh &&
                   spec.out_size(grad_input->dim(3)) == ow),
              "conv2d_backward grad_input shape "
                  << grad_input->shape_string() << " for grad "
                  << grad_out.shape_string());
  const util::Workspace::Scope scope(ws);
  const std::int64_t plane = oh * ow;
  const float* pg = grad_out.data();

  // grad_out as rows, (n*oh*ow, oc): each image's (oc, oh*ow) block
  // transposed, the images in parallel.
  TensorView grows(ws.floats(rows * oc), {rows, oc});
  float* pgr = grows.data();
  const auto transpose = simd::kernels().transpose_f32;
  parallel::parallel_for(0, n, parallel::grain_for(oc * plane),
                         [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in = n0; in < n1; ++in) {
      transpose(pgr + in * plane * oc, pg + in * oc * plane, oc, plane);
    }
  });

  // grad_wmat += grows^T * cols : (oc, ic*k*k), added through a 2-d view
  // of the caller's (OC, IC, k, k) buffer.
  ops::matmul_at_add_into(grows, cols,
                          TensorView(grad_weight.data(), {oc, ckk}));

  // grad_bias[c] += channel c's sum over (image, oy, ox): a column sum of
  // grows, one float chain per channel in ascending row order.
  simd::kernels().col_sums_f32(grad_bias.data(), pgr, rows, oc);

  if (grad_input == nullptr) return;
  const ConstTensorView wmat(weight.data(), {oc, ckk});
  const std::int64_t h = grad_input->dim(2), w = grad_input->dim(3);
  if (spec.stride != 1) {
    // grad_cols = grows * wmat : (n*oh*ow, ic*k*k); then fold back.
    TensorView grad_cols(ws.floats(rows * ckk), {rows, ckk});
    ops::matmul_into(grows, wmat, grad_cols);
    col2im_into(grad_cols, spec, n, h, w, *grad_input);
    return;
  }
  // Stride 1, one image at a time: grad_cols^T = wmat^T * (the image's
  // (oc, oh*ow) grad_out block). Each element is grad_cols's float chain
  // over output channels (the products commute), and each input channel's
  // k*k tap rows are (oh, ow) planes that the fold kernel adds up in
  // col2im_into's order, so every input element still receives its
  // contributions in ascending (oy, ox) order.
  const std::int64_t ic = spec.in_channels, k = spec.kernel;
  TensorView cols_t(ws.floats(ckk * plane), {ckk, plane});
  const float* pt = cols_t.data();
  float* px = grad_input->data();
  const auto fold = simd::kernels().fold_taps_f32;
  for (std::int64_t in = 0; in < n; ++in) {
    ops::matmul_at_into(
        wmat, ConstTensorView(pg + in * oc * plane, {oc, plane}), cols_t);
    parallel::parallel_for(0, ic, parallel::grain_for(k * k * plane),
                           [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t c = c0; c < c1; ++c) {
        fold(px + (in * ic + c) * h * w, pt + c * k * k * plane, h, w, oh, ow,
             k, spec.padding);
      }
    });
  }
}

void maxpool2d_forward_into(ConstTensorView x, std::int64_t kernel,
                            TensorView out, std::span<std::int64_t> argmax) {
  checked_entry("maxpool2d_forward", x, out);
  check_nchw(x, "maxpool2d");
  FHDNN_CHECK(kernel >= 1, "pool kernel " << kernel);
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  FHDNN_CHECK(h % kernel == 0 && w % kernel == 0,
              "maxpool2d requires H,W divisible by kernel; got "
                  << x.shape_string() << " kernel " << kernel);
  const std::int64_t oh = h / kernel, ow = w / kernel;
  FHDNN_CHECK(out.ndim() == 4 && out.dim(0) == n && out.dim(1) == c &&
                  out.dim(2) == oh && out.dim(3) == ow,
              "maxpool2d output shape " << out.shape_string());
  FHDNN_CHECK(static_cast<std::int64_t>(argmax.size()) == out.numel(),
              "maxpool2d argmax size " << argmax.size());
  const float* px = x.data();
  float* po = out.data();
  std::int64_t* pam = argmax.data();
  // Parallel over (image, channel) planes; each plane writes a private
  // slice of output and argmax. The planes of a chunk are one stack of
  // rows, and no 2x2 window crosses a plane's edge, so one kernel call
  // covers the chunk.
  if (kernel == 2) {
    const auto pool = simd::kernels().maxpool2_f32;
    parallel::parallel_for(0, n * c, parallel::grain_for(h * w),
                           [&](std::int64_t p0, std::int64_t p1) {
      pool(px + p0 * h * w, (p1 - p0) * h, w, p0 * h * w, po + p0 * oh * ow,
           pam + p0 * oh * ow);
    });
    return;
  }
  parallel::parallel_for(0, n * c, parallel::grain_for(h * w),
                         [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t plane = p0; plane < p1; ++plane) {
      const float* chan = px + plane * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t out_row = (plane * oh + oy) * ow;
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t first = oy * kernel * w + ox * kernel;
          const PoolPick best = window_max(chan, first, w, kernel);
          po[out_row + ox] = best.value;
          pam[out_row + ox] = plane * h * w + best.index;
        }
      }
    }
  });
}

void maxpool2d_backward_into(ConstTensorView grad_out,
                             std::span<const std::int64_t> argmax,
                             TensorView gx) {
  checked_entry("maxpool2d_backward", grad_out, gx);
  FHDNN_CHECK(static_cast<std::int64_t>(argmax.size()) == grad_out.numel(),
              "maxpool backward argmax size mismatch");
  std::fill(gx.data(), gx.data() + gx.numel(), 0.0F);
  const float* pg = grad_out.data();
  float* px = gx.data();
  const std::int64_t total = gx.numel();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    const std::int64_t idx = argmax[i];
    FHDNN_CHECK(idx >= 0 && idx < total,
                "maxpool backward argmax " << idx << " out of range " << total);
    px[idx] += pg[i];
  }
}

void global_avgpool_forward_into(ConstTensorView x, TensorView y) {
  checked_entry("global_avgpool_forward", x, y);
  check_nchw(x, "global_avgpool");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  FHDNN_CHECK(y.ndim() == 2 && y.dim(0) == n && y.dim(1) == c,
              "global_avgpool output shape " << y.shape_string());
  const float* px = x.data();
  float* py = y.data();
  const float inv = 1.0F / static_cast<float>(h * w);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      const float* chan = px + (in * c + ic) * h * w;
      double s = 0.0;
      for (std::int64_t i = 0; i < h * w; ++i) s += chan[i];
      py[in * c + ic] = static_cast<float>(s) * inv;
    }
  }
}

void global_avgpool_backward_into(ConstTensorView grad_out, TensorView gx) {
  checked_entry("global_avgpool_backward", grad_out, gx);
  check_nchw(gx, "global_avgpool_backward");
  const std::int64_t n = gx.dim(0), c = gx.dim(1), h = gx.dim(2),
                     w = gx.dim(3);
  FHDNN_CHECK(grad_out.ndim() == 2 && grad_out.dim(0) == n &&
                  grad_out.dim(1) == c,
              "global_avgpool_backward grad shape "
                  << grad_out.shape_string());
  const float* pg = grad_out.data();
  float* px = gx.data();
  const float inv = 1.0F / static_cast<float>(h * w);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      const float g = pg[in * c + ic] * inv;
      float* chan = px + (in * c + ic) * h * w;
      for (std::int64_t i = 0; i < h * w; ++i) chan[i] = g;
    }
  }
}

}  // namespace fhdnn::ops
