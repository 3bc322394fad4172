// Tests for src/tensor/conv.hpp: im2col/col2im, conv2d forward/backward,
// pooling. Convolution correctness is checked against a naive reference and
// gradients against central finite differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "computed.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace fhdnn {
namespace {

using ops::Conv2dSpec;

/// Naive direct convolution for cross-checking.
Tensor conv2d_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                        const Conv2dSpec& spec) {
  const std::int64_t n = x.dim(0), h = x.dim(2), ww = x.dim(3);
  const std::int64_t oh = spec.out_size(h), ow = spec.out_size(ww);
  Tensor y(Shape{n, spec.out_channels, oh, ow});
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = b(oc);
          for (std::int64_t ic = 0; ic < spec.in_channels; ++ic) {
            for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                const std::int64_t iy = oy * spec.stride + ky - spec.padding;
                const std::int64_t ix = ox * spec.stride + kx - spec.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= ww) continue;
                acc += static_cast<double>(x(in, ic, iy, ix)) *
                       w(oc, ic, ky, kx);
              }
            }
          }
          y(in, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

TEST(Conv2dSpec, OutSize) {
  Conv2dSpec s{1, 1, 3, 1, 1};
  EXPECT_EQ(s.out_size(8), 8);
  s.stride = 2;
  EXPECT_EQ(s.out_size(8), 4);
  EXPECT_EQ(s.out_size(7), 4);
  s.padding = 0;
  EXPECT_EQ(s.out_size(7), 3);
}

TEST(Im2col, KnownSmallCase) {
  // 1x1x2x2 input, kernel 2, stride 1, no padding -> single column row.
  Conv2dSpec spec{1, 1, 2, 1, 0};
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor cols =
      computed({1, 4}, [&](Tensor& o) { ops::im2col_into(x, spec, o); });
  EXPECT_EQ(cols(0, 0), 1.0F);
  EXPECT_EQ(cols(0, 3), 4.0F);
}

TEST(Im2col, PaddingZeros) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor x(Shape{1, 1, 1, 1}, {5});
  const Tensor cols =
      computed({1, 9}, [&](Tensor& o) { ops::im2col_into(x, spec, o); });
  // Center element is the value, all others padding zeros.
  EXPECT_EQ(cols(0, 4), 5.0F);
  for (std::int64_t j = 0; j < 9; ++j) {
    if (j != 4) {
      EXPECT_EQ(cols(0, j), 0.0F);
    }
  }
}

TEST(Im2colCol2im, AdjointProperty) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint pair).
  Rng rng(1);
  Conv2dSpec spec{2, 3, 3, 2, 1};
  const Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);
  const Tensor cols =
      computed({2 * 3 * 3, 2 * 3 * 3},
               [&](Tensor& o) { ops::im2col_into(x, spec, o); });
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = computed(
      x.shape(), [&](Tensor& o) { ops::col2im_into(y, spec, 2, 5, 5, o); });
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) lhs += cols.at(i) * y.at(i);
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x.at(i) * back.at(i);
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Conv2d, MatchesReferenceStride1) {
  Rng rng(2);
  Conv2dSpec spec{2, 4, 3, 1, 1};
  const Tensor x = Tensor::randn(Shape{2, 2, 6, 6}, rng);
  const Tensor w = Tensor::randn(Shape{4, 2, 3, 3}, rng);
  const Tensor b = Tensor::randn(Shape{4}, rng);
  const Tensor want = conv2d_reference(x, w, b, spec);
  const Tensor got = computed(want.shape(), [&](Tensor& o) {
    ops::conv2d_forward_into(x, w, b, spec, o, util::tls_workspace());
  });
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.at(i), want.at(i), 1e-3);
  }
}

TEST(Conv2d, MatchesReferenceStride2NoPad) {
  Rng rng(3);
  Conv2dSpec spec{1, 2, 2, 2, 0};
  const Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  const Tensor w = Tensor::randn(Shape{2, 1, 2, 2}, rng);
  const Tensor b(Shape{2});
  const Tensor got = computed({1, 2, 2, 2}, [&](Tensor& o) {
    ops::conv2d_forward_into(x, w, b, spec, o, util::tls_workspace());
  });
  const Tensor want = conv2d_reference(x, w, b, spec);
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got.at(i), want.at(i), 1e-4);
  }
}

TEST(Conv2d, IdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Conv2dSpec spec{1, 1, 1, 1, 0};
  Rng rng(4);
  const Tensor x = Tensor::randn(Shape{1, 1, 3, 3}, rng);
  const Tensor w = Tensor::ones(Shape{1, 1, 1, 1});
  const Tensor b(Shape{1});
  const Tensor y = computed(x.shape(), [&](Tensor& o) {
    ops::conv2d_forward_into(x, w, b, spec, o, util::tls_workspace());
  });
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y.at(i), x.at(i));
}

/// Central-difference gradient of sum(conv(x) * g) w.r.t. one scalar.
double numeric_grad(const std::function<double()>& loss, float& param,
                    float eps = 1e-2F) {
  const float orig = param;
  param = orig + eps;
  const double lp = loss();
  param = orig - eps;
  const double lm = loss();
  param = orig;
  return (lp - lm) / (2.0 * eps);
}

TEST(Conv2dBackward, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  Conv2dSpec spec{2, 3, 3, 2, 1};
  Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  Tensor b = Tensor::randn(Shape{3}, rng);
  const Tensor g = Tensor::randn(Shape{1, 3, 3, 3}, rng);

  util::Workspace& ws = util::tls_workspace();
  Tensor y(g.shape());
  Tensor cols(Shape{9, 18});
  auto loss = [&]() {
    ops::conv2d_forward_into(x, w, b, spec, y, cols, ws);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) s += y.at(i) * g.at(i);
    return s;
  };
  loss();
  Tensor gx(x.shape());
  Tensor gw(w.shape());
  Tensor gb(b.shape());
  TensorView gx_view(gx);
  ops::conv2d_backward_from_cols_into(g, cols, w, spec, &gx_view, gw, gb, ws);

  // Spot-check a sample of coordinates in each gradient tensor.
  for (const std::int64_t idx : {0L, 7L, 23L}) {
    const double num = numeric_grad(loss, w.at(idx % w.numel()));
    EXPECT_NEAR(gw.at(idx % w.numel()), num, 5e-2)
        << "weight idx " << idx;
  }
  for (const std::int64_t idx : {0L, 1L, 2L}) {
    const double num = numeric_grad(loss, b.at(idx));
    EXPECT_NEAR(gb.at(idx), num, 5e-2) << "bias idx " << idx;
  }
  for (const std::int64_t idx : {0L, 11L, 37L}) {
    const double num = numeric_grad(loss, x.at(idx % x.numel()));
    EXPECT_NEAR(gx.at(idx % x.numel()), num, 5e-2)
        << "input idx " << idx;
  }
}

TEST(MaxPool, ForwardAndArgmax) {
  Tensor x(Shape{1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 7});
  Tensor y(Shape{1, 1, 1, 2});
  std::vector<std::int64_t> argmax(2);
  ops::maxpool2d_forward_into(x, 2, y, argmax);
  EXPECT_EQ(y(0, 0, 0, 0), 5.0F);
  EXPECT_EQ(y(0, 0, 0, 1), 8.0F);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_EQ(argmax[1], 6);
}

TEST(MaxPool, BackwardScattersToArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 9});
  Tensor y(Shape{1, 1, 1, 1});
  std::vector<std::int64_t> argmax(1);
  ops::maxpool2d_forward_into(x, 2, y, argmax);
  Tensor g(Shape{1, 1, 1, 1}, {2.5F});
  Tensor gx(x.shape(), {7, 7, 7, 7});  // the backward zero-fills it first
  ops::maxpool2d_backward_into(g, argmax, gx);
  EXPECT_EQ(gx(0, 0, 1, 1), 2.5F);
  EXPECT_EQ(gx.sum(), 2.5);
}

// An all -inf window has no element above the old -inf seed; its argmax
// must still be its own first element, not flat index 0 (image 0's pixel),
// or backward adds image 1's gradient to image 0.
TEST(MaxPool, AllNegInfWindowKeepsGradientInItsImage) {
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x(Shape{2, 1, 2, 2}, {1, 2, 3, 4, ninf, ninf, ninf, ninf});
  Tensor y(Shape{2, 1, 1, 1});
  std::vector<std::int64_t> argmax(2);
  ops::maxpool2d_forward_into(x, 2, y, argmax);
  EXPECT_EQ(y(1, 0, 0, 0), ninf);
  EXPECT_EQ(argmax[0], 3);
  EXPECT_EQ(argmax[1], 4);
  Tensor g(Shape{2, 1, 1, 1}, {1.0F, 10.0F});
  Tensor gx(x.shape());
  ops::maxpool2d_backward_into(g, argmax, gx);
  EXPECT_EQ(gx(0, 0, 0, 0), 0.0F);
  EXPECT_EQ(gx(0, 0, 1, 1), 1.0F);
  EXPECT_EQ(gx(1, 0, 0, 0), 10.0F);
  EXPECT_EQ(gx.sum(), 11.0);
}

// A NaN in a window propagates to the output and takes the gradient: the
// first NaN wins, wherever it sits and whatever surrounds it.
TEST(MaxPool, NanWindowPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x(Shape{1, 3, 2, 2}, {nan, nan, nan, nan,     //
                               5, nan, 9, nan,         //
                               -1, -2, -3, -4});
  Tensor y(Shape{1, 3, 1, 1});
  std::vector<std::int64_t> argmax(3);
  ops::maxpool2d_forward_into(x, 2, y, argmax);
  EXPECT_TRUE(std::isnan(y(0, 0, 0, 0)));
  EXPECT_EQ(argmax[0], 0);
  EXPECT_TRUE(std::isnan(y(0, 1, 0, 0)));
  EXPECT_EQ(argmax[1], 5);
  EXPECT_EQ(y(0, 2, 0, 0), -1.0F);
  EXPECT_EQ(argmax[2], 8);
}

TEST(MaxPool, RequiresDivisibleShape) {
  Tensor x(Shape{1, 1, 3, 4});
  Tensor y(Shape{1, 1, 1, 2});
  std::vector<std::int64_t> argmax(2);
  EXPECT_THROW(ops::maxpool2d_forward_into(x, 2, y, argmax), Error);
  EXPECT_THROW(ops::maxpool2d_forward_into(x, 0, y, argmax), Error);
}

TEST(GlobalAvgPool, ForwardBackward) {
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor y = computed(
      {1, 2}, [&](Tensor& o) { ops::global_avgpool_forward_into(x, o); });
  EXPECT_NEAR(y(0, 0), 2.5F, 1e-6);
  EXPECT_NEAR(y(0, 1), 10.0F, 1e-6);
  Tensor g(Shape{1, 2}, {4.0F, 8.0F});
  const Tensor gx = computed(
      x.shape(), [&](Tensor& o) { ops::global_avgpool_backward_into(g, o); });
  EXPECT_NEAR(gx(0, 0, 0, 0), 1.0F, 1e-6);
  EXPECT_NEAR(gx(0, 1, 1, 1), 2.0F, 1e-6);
}

TEST(Conv2d, RejectsBadShapes) {
  Conv2dSpec spec{2, 3, 3, 1, 1};
  Tensor x3(Shape{2, 5, 5});
  Tensor w(Shape{3, 2, 3, 3});
  Tensor b(Shape{3});
  Tensor y(Shape{1, 3, 5, 5});
  util::Workspace& ws = util::tls_workspace();
  EXPECT_THROW(ops::conv2d_forward_into(x3, w, b, spec, y, ws), Error);
  Tensor x(Shape{1, 2, 5, 5});
  Tensor wbad(Shape{3, 1, 3, 3});
  EXPECT_THROW(ops::conv2d_forward_into(x, wbad, b, spec, y, ws), Error);
  Tensor bbad(Shape{2});
  EXPECT_THROW(ops::conv2d_forward_into(x, w, bbad, spec, y, ws), Error);
  Tensor ybad(Shape{1, 3, 4, 5});
  EXPECT_THROW(ops::conv2d_forward_into(x, w, b, spec, ybad, ws), Error);
}

/// Runs `call`, which must throw an Error naming the weight shape.
void expect_weight_shape_error(const std::function<void()>& call) {
  try {
    call();
    ADD_FAILURE() << "a mis-shaped weight was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("weight shape"), std::string::npos)
        << e.what();
  }
}

TEST(Conv2dBackward, RejectsWeightNotMatchingSpec) {
  // A (8, 4, 1, 1) weight holds 32 floats; spec 4 -> 8 with k = 3 needs
  // 8 x 36. The forward rejects it, and so must the backward, before
  // either reads or writes 8 x 36 floats through 32-float buffers.
  const Conv2dSpec spec{4, 8, 3, 1, 1};
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{1, 4, 5, 5}, rng);
  const Tensor wbad = Tensor::randn(Shape{8, 4, 1, 1}, rng);
  const Tensor b(Shape{8});
  const Tensor g = Tensor::randn(Shape{1, 8, 5, 5}, rng);
  Tensor y(g.shape());
  Tensor gx(x.shape());
  TensorView gx_view(gx);
  Tensor gw(wbad.shape());
  Tensor gb(Shape{8});
  const Tensor cols(Shape{25, 36});
  util::Workspace& ws = util::tls_workspace();
  expect_weight_shape_error(
      [&] { ops::conv2d_forward_into(x, wbad, b, spec, y, ws); });
  expect_weight_shape_error([&] {
    ops::conv2d_backward_from_cols_into(g, cols, wbad, spec, &gx_view, gw, gb,
                                        ws);
  });
  expect_weight_shape_error([&] {
    ops::conv2d_backward_from_cols_into(g, cols, wbad, spec, nullptr, gw, gb,
                                        ws);
  });
}

// ----------------------------------------------------------------------
// Kernel exactness: relu, maxpool, im2col, col2im and the conv backward
// must equal plain scalar reference loops bit for bit. One invariant
// each, checked over many random geometries and inputs laced with NaN
// (with payloads), +-0, +-inf and ties; a failure names the seed and
// prints both values in hexfloat.

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Normal values with a wide exponent spread (so a changed summation order
/// shows), sprinkled with specials and exact repeats of earlier values.
Tensor laced(Shape shape, Rng& rng, bool specials = true) {
  Tensor t(std::move(shape));
  auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double u = rng.uniform();
    float v = static_cast<float>(rng.normal()) *
              std::ldexp(1.0F, static_cast<int>(rng.randint(0, 24)) - 12);
    if (specials && u < 0.04) {
      v = std::bit_cast<float>(0x7FC00000U |
                               static_cast<std::uint32_t>(i & 0xFFFU));
    } else if (specials && u < 0.06) {
      v = -std::numeric_limits<float>::quiet_NaN();
    } else if (specials && u < 0.12) {
      v = (i % 2 == 0) ? 0.0F : -0.0F;
    } else if (specials && u < 0.15) {
      v = (i % 2 == 0) ? std::numeric_limits<float>::infinity()
                       : -std::numeric_limits<float>::infinity();
    } else if (u < 0.35 && i > 0) {
      v = d[static_cast<std::size_t>(rng.randint(0, i - 1))];
    }
    d[i] = v;
  }
  return t;
}

void expect_bits(std::span<const float> got, std::span<const float> want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " at " << i << ": " << std::hexfloat << got[i] << " vs "
        << want[i];
  }
}

/// Restores the SIMD tier a test switched away from.
class SimdTierGuard {
 public:
  SimdTierGuard() : saved_(util::active_simd()) {}
  ~SimdTierGuard() { util::set_simd_tier(saved_); }
  SimdTierGuard(const SimdTierGuard&) = delete;
  SimdTierGuard& operator=(const SimdTierGuard&) = delete;

 private:
  util::SimdTier saved_;
};

TEST(KernelExactness, ReluMatchesScalarExpressionsOnEveryTier) {
  const SimdTierGuard guard;
  for (const util::SimdTier tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      Rng rng(seed);
      // Lengths from 1 to 70 cover every vector body and tail length.
      const std::int64_t len = 1 + static_cast<std::int64_t>(seed % 70);
      const Tensor x = laced(Shape{len}, rng);
      const Tensor g = laced(Shape{len}, rng);
      Tensor y(Shape{len});
      Tensor gx(Shape{len});
      ops::relu_into(x, y);
      ops::relu_backward_into(g, x, gx);
      std::vector<float> want_y(static_cast<std::size_t>(len));
      std::vector<float> want_gx(want_y.size());
      for (std::int64_t i = 0; i < len; ++i) {
        want_y[static_cast<std::size_t>(i)] = std::max(x.at(i), 0.0F);
        want_gx[static_cast<std::size_t>(i)] =
            x.at(i) <= 0.0F ? 0.0F : g.at(i);
      }
      const std::string what = std::string(util::simd_tier_name(tier)) +
                               " seed " + std::to_string(seed);
      expect_bits(y.data(), want_y, "relu " + what);
      expect_bits(gx.data(), want_gx, "relu_backward " + what);
      // ReLU and ResidualBlock mask their backward on the forward's output
      // instead of its input: relu(x) must give the same mask as x.
      Tensor gy(Shape{len});
      ops::relu_backward_into(g, y, gy);
      expect_bits(gy.data(), gx.data(), "relu_backward on relu(x) " + what);
    }
  }
}

// Output widths up to 24 cover every tier's vector body (up to 16
// windows) and each of its tail lengths, for the 2x2 kernel and the
// generic window scan alike.
TEST(KernelExactness, MaxPoolMatchesScalarWindowScan) {
  const SimdTierGuard guard;
  for (const util::SimdTier tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      Rng rng(seed);
      const std::int64_t k = rng.randint(1, 3);
      const std::int64_t n = rng.randint(1, 2), c = rng.randint(1, 3);
      const std::int64_t h = k * rng.randint(1, 5);
      const std::int64_t w = k * rng.randint(1, 24);
      const Tensor x = laced(Shape{n, c, h, w}, rng);
      Tensor got(Shape{n, c, h / k, w / k});
      std::vector<std::int64_t> argmax(static_cast<std::size_t>(got.numel()));
      ops::maxpool2d_forward_into(x, k, got, argmax);
      // Reference scan: seeded with the window's first element, a candidate
      // wins if strictly greater or a NaN over a number, in row-major
      // window order.
      const std::int64_t oh = h / k, ow = w / k;
      const std::string what = std::string(util::simd_tier_name(tier)) +
                               " maxpool seed " + std::to_string(seed);
      for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const float* chan = x.data().data() + plane * h * w;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t first = oy * k * w + ox * k;
            std::int64_t best = first;
            float best_v = chan[first];
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t i = first + ky * w + kx;
                if (chan[i] > best_v ||
                    (std::isnan(chan[i]) && !std::isnan(best_v))) {
                  best_v = chan[i];
                  best = i;
                }
              }
            }
            const std::int64_t o = (plane * oh + oy) * ow + ox;
            ASSERT_TRUE(same_bits(got.at(o), best_v))
                << what << " at " << o << ": " << std::hexfloat << got.at(o)
                << " vs " << best_v;
            ASSERT_EQ(argmax[static_cast<std::size_t>(o)],
                      plane * h * w + best)
                << what << " at " << o;
          }
        }
      }
    }
  }
}

Conv2dSpec random_spec(Rng& rng, std::int64_t& h, std::int64_t& w) {
  Conv2dSpec spec{rng.randint(1, 3), rng.randint(1, 4),
                  rng.randint(1, 3), rng.randint(1, 2),
                  rng.randint(0, 2)};
  // Inputs at least one kernel wide, so every output size is positive.
  h = rng.randint(spec.kernel, 9);
  w = rng.randint(spec.kernel, 9);
  return spec;
}

TEST(KernelExactness, Im2colAndCol2imMatchPatchOrderLoops) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    std::int64_t h = 0, w = 0;
    const Conv2dSpec spec = random_spec(rng, h, w);
    const std::int64_t n = rng.randint(1, 3), c = spec.in_channels;
    const std::int64_t k = spec.kernel, s = spec.stride, p = spec.padding;
    const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
    const std::int64_t row_len = c * k * k;
    const Tensor x = laced(Shape{n, c, h, w}, rng);
    const Tensor cols = laced(Shape{n * oh * ow, row_len}, rng, false);
    // Reference patch-order loops: one (image, oy, ox) row at a time,
    // (ic, ky, kx) within it, bounds tested per element.
    std::vector<float> want_cols(static_cast<std::size_t>(cols.numel()));
    std::vector<float> want_img(static_cast<std::size_t>(x.numel()), 0.0F);
    for (std::int64_t r = 0; r < n * oh * ow; ++r) {
      const std::int64_t in = r / (oh * ow), oy = (r / ow) % oh, ox = r % ow;
      std::int64_t col = 0;
      for (std::int64_t ic = 0; ic < c; ++ic) {
        for (std::int64_t ky = 0; ky < k; ++ky) {
          for (std::int64_t kx = 0; kx < k; ++kx, ++col) {
            const std::int64_t iy = oy * s + ky - p, ix = ox * s + kx - p;
            const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
            const std::int64_t xi = ((in * c + ic) * h + iy) * w + ix;
            const auto ri = static_cast<std::size_t>(r * row_len + col);
            want_cols[ri] = inside ? x.at(xi) : 0.0F;
            if (inside) {
              want_img[static_cast<std::size_t>(xi)] += cols.data()[ri];
            }
          }
        }
      }
    }
    const std::string what = " seed " + std::to_string(seed);
    expect_bits(computed(cols.shape(),
                         [&](Tensor& o) { ops::im2col_into(x, spec, o); })
                    .data(),
                want_cols, "im2col" + what);
    expect_bits(computed(x.shape(),
                         [&](Tensor& o) {
                           ops::col2im_into(cols, spec, n, h, w, o);
                         })
                    .data(),
                want_img, "col2im" + what);
  }
}

// The backward reads the forward's kept im2col. Those columns must be the
// input's im2col bit for bit, the forward must be each output's double
// chain rounded once plus its bias, and every gradient must equal a scalar
// loop over the input: grad_weight and each grad_cols element are one
// float chain from +0.0F (output positions ascending, then output channels
// ascending), folded into grad_input in (image, oy, ox) patch order;
// grad_bias is one float chain per channel in (image, oy, ox) order. The
// parameter gradients are added into what their buffers held.
TEST(KernelExactness, BackwardFromKeptColsMatchesRebuild) {
  util::Workspace& ws = util::tls_workspace();
  const SimdTierGuard guard;
  for (const util::SimdTier tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng rng(seed);
      std::int64_t h = 0, w = 0;
      const Conv2dSpec spec = random_spec(rng, h, w);
      const std::int64_t n = rng.randint(1, 3);
      const std::int64_t ic = spec.in_channels, oc = spec.out_channels;
      const std::int64_t k = spec.kernel, s = spec.stride, p = spec.padding;
      const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
      const std::int64_t rows = n * oh * ow, ckk = ic * k * k;
      const Tensor x = laced(Shape{n, ic, h, w}, rng, false);
      const Tensor weight = laced(Shape{oc, ic, k, k}, rng, false);
      const Tensor bias = laced(Shape{oc}, rng, false);
      const Tensor g = laced(Shape{n, oc, oh, ow}, rng, false);

      Tensor y(g.shape());
      Tensor cols(Shape{rows, ckk});
      ops::conv2d_forward_into(x, weight, bias, spec, y, cols, ws);
      const std::string what = " " + std::string(util::simd_tier_name(tier)) +
                               " seed " + std::to_string(seed);
      expect_bits(cols.data(),
                  computed(cols.shape(),
                           [&](Tensor& o) { ops::im2col_into(x, spec, o); })
                      .data(),
                  "kept cols" + what);
      expect_bits(y.data(),
                  computed(y.shape(),
                           [&](Tensor& o) {
                             ops::conv2d_forward_into(x, weight, bias, spec, o,
                                                      ws);
                           })
                      .data(),
                  "forward with kept cols" + what);
      std::vector<float> want_y(static_cast<std::size_t>(y.numel()));
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t in = r / (oh * ow), pos = r % (oh * ow);
        for (std::int64_t c = 0; c < oc; ++c) {
          double acc = 0.0;
          for (std::int64_t j = 0; j < ckk; ++j) {
            acc += static_cast<double>(cols.at(r * ckk + j)) *
                   weight.at(c * ckk + j);
          }
          want_y[static_cast<std::size_t>((in * oc + c) * oh * ow + pos)] =
              static_cast<float>(acc) + bias.at(c);
        }
      }
      expect_bits(y.data(), want_y, "forward" + what);

      // Scalar reference, one output position r = (image, oy, ox) at a time.
      const auto grad_at = [&](std::int64_t r, std::int64_t c) {
        const std::int64_t in = r / (oh * ow), pos = r % (oh * ow);
        return g.at((in * oc + c) * oh * ow + pos);
      };
      std::vector<float> want_gw(static_cast<std::size_t>(oc * ckk), 0.0F);
      std::vector<float> want_gx(static_cast<std::size_t>(x.numel()), 0.0F);
      std::vector<float> want_gb(static_cast<std::size_t>(oc), 0.0F);
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t in = r / (oh * ow), oy = (r / ow) % oh, ox = r % ow;
        for (std::int64_t c = 0; c < oc; ++c) {
          for (std::int64_t j = 0; j < ckk; ++j) {
            want_gw[static_cast<std::size_t>(c * ckk + j)] +=
                grad_at(r, c) * cols.at(r * ckk + j);
          }
          want_gb[static_cast<std::size_t>(c)] += grad_at(r, c);
        }
        for (std::int64_t j = 0; j < ckk; ++j) {
          const std::int64_t ci = j / (k * k), ky = (j / k) % k, kx = j % k;
          const std::int64_t iy = oy * s + ky - p, ix = ox * s + kx - p;
          if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
          float gc = 0.0F;
          for (std::int64_t c = 0; c < oc; ++c) {
            gc += grad_at(r, c) * weight.at(c * ckk + j);
          }
          want_gx[static_cast<std::size_t>(((in * ic + ci) * h + iy) * w +
                                           ix)] += gc;
        }
      }

      Tensor gx(x.shape());
      Tensor gw(weight.shape());
      Tensor gb(Shape{oc});
      TensorView gx_view(gx);
      ops::conv2d_backward_from_cols_into(g, cols, weight, spec, &gx_view, gw,
                                          gb, ws);
      expect_bits(gx.data(), want_gx, "grad_input" + what);
      expect_bits(gw.data(), want_gw, "grad_weight" + what);
      expect_bits(gb.data(), want_gb, "grad_bias" + what);

      // Skipping the input gradient leaves the other two untouched; a second
      // call adds its gradients onto the first's.
      ops::conv2d_backward_from_cols_into(g, cols, weight, spec, nullptr, gw,
                                          gb, ws);
      for (float& v : want_gw) v += v;
      for (float& v : want_gb) v += v;
      expect_bits(gw.data(), want_gw, "grad_weight, input grad skipped" + what);
      expect_bits(gb.data(), want_gb, "grad_bias, input grad skipped" + what);
    }
  }
}

// The GEMM's store-add mode against the two passes it replaces: the
// product into scratch, then ops::accumulate into the gradient buffer.
// Shapes sweep past every tier's register-tile edges. Where a NaN meets a
// NaN either payload may survive (IEEE 754 leaves it open, and the scalar
// tier's compiler picks the operand order), so two NaN results match
// whatever their payloads; every other element matches bit for bit.
TEST(KernelExactness, MatmulAtAddMatchesSeparateAccumulate) {
  const SimdTierGuard guard;
  for (const util::SimdTier tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
      Rng rng(seed);
      const std::int64_t k = rng.randint(1, 12), m = rng.randint(1, 20);
      const std::int64_t n = rng.randint(1, 70);
      const Tensor a = laced(Shape{k, m}, rng);
      const Tensor b = laced(Shape{k, n}, rng);
      const Tensor c0 = laced(Shape{m, n}, rng);
      Tensor got = c0;
      ops::matmul_at_add_into(a, b, got);
      Tensor want = c0;
      ops::accumulate(want, computed(Shape{m, n}, [&](Tensor& o) {
                        ops::matmul_at_into(a, b, o);
                      }));
      for (std::int64_t i = 0; i < got.numel(); ++i) {
        ASSERT_TRUE((std::isnan(got.at(i)) && std::isnan(want.at(i))) ||
                    same_bits(got.at(i), want.at(i)))
            << util::simd_tier_name(tier) << " seed " << seed << " at " << i
            << ": " << std::hexfloat << got.at(i) << " vs " << want.at(i);
      }
    }
  }
}

}  // namespace
}  // namespace fhdnn
