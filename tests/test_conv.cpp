// Tests for src/tensor/conv.hpp: im2col/col2im, conv2d forward/backward,
// pooling. Convolution correctness is checked against a naive reference and
// gradients against central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "tensor/conv.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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
  const Tensor cols = ops::im2col(x, spec);
  EXPECT_EQ(cols.shape(), (Shape{1, 4}));
  EXPECT_EQ(cols(0, 0), 1.0F);
  EXPECT_EQ(cols(0, 3), 4.0F);
}

TEST(Im2col, PaddingZeros) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Tensor x(Shape{1, 1, 1, 1}, {5});
  const Tensor cols = ops::im2col(x, spec);
  EXPECT_EQ(cols.shape(), (Shape{1, 9}));
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
  const Tensor cols = ops::im2col(x, spec);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = ops::col2im(y, spec, 2, 5, 5);
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
  const Tensor got = ops::conv2d_forward(x, w, b, spec);
  const Tensor want = conv2d_reference(x, w, b, spec);
  ASSERT_EQ(got.shape(), want.shape());
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
  const Tensor got = ops::conv2d_forward(x, w, b, spec);
  const Tensor want = conv2d_reference(x, w, b, spec);
  ASSERT_EQ(got.shape(), (Shape{1, 2, 2, 2}));
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
  const Tensor y = ops::conv2d_forward(x, w, b, spec);
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

  auto loss = [&]() {
    const Tensor y = ops::conv2d_forward(x, w, b, spec);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) s += y.at(i) * g.at(i);
    return s;
  };
  const auto grads = ops::conv2d_backward(g, x, w, spec);

  // Spot-check a sample of coordinates in each gradient tensor.
  for (const std::int64_t idx : {0L, 7L, 23L}) {
    const double num = numeric_grad(loss, w.at(idx % w.numel()));
    EXPECT_NEAR(grads.grad_weight.at(idx % w.numel()), num, 5e-2)
        << "weight idx " << idx;
  }
  for (const std::int64_t idx : {0L, 1L, 2L}) {
    const double num = numeric_grad(loss, b.at(idx));
    EXPECT_NEAR(grads.grad_bias.at(idx), num, 5e-2) << "bias idx " << idx;
  }
  for (const std::int64_t idx : {0L, 11L, 37L}) {
    const double num = numeric_grad(loss, x.at(idx % x.numel()));
    EXPECT_NEAR(grads.grad_input.at(idx % x.numel()), num, 5e-2)
        << "input idx " << idx;
  }
}

TEST(MaxPool, ForwardAndArgmax) {
  Tensor x(Shape{1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 7});
  const auto res = ops::maxpool2d_forward(x, 2);
  EXPECT_EQ(res.output.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_EQ(res.output(0, 0, 0, 0), 5.0F);
  EXPECT_EQ(res.output(0, 0, 0, 1), 8.0F);
  EXPECT_EQ(res.argmax[0], 1);
  EXPECT_EQ(res.argmax[1], 6);
}

TEST(MaxPool, BackwardScattersToArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 9});
  const auto res = ops::maxpool2d_forward(x, 2);
  Tensor g(Shape{1, 1, 1, 1}, {2.5F});
  const Tensor gx = ops::maxpool2d_backward(g, res.argmax, x.shape());
  EXPECT_EQ(gx(0, 0, 1, 1), 2.5F);
  EXPECT_EQ(gx.sum(), 2.5);
}

// An all -inf window has no element above the old -inf seed; its argmax
// must still be its own first element, not flat index 0 (image 0's pixel),
// or backward adds image 1's gradient to image 0.
TEST(MaxPool, AllNegInfWindowKeepsGradientInItsImage) {
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x(Shape{2, 1, 2, 2}, {1, 2, 3, 4, ninf, ninf, ninf, ninf});
  const auto res = ops::maxpool2d_forward(x, 2);
  EXPECT_EQ(res.output(1, 0, 0, 0), ninf);
  EXPECT_EQ(res.argmax[0], 3);
  EXPECT_EQ(res.argmax[1], 4);
  Tensor g(Shape{2, 1, 1, 1}, {1.0F, 10.0F});
  const Tensor gx = ops::maxpool2d_backward(g, res.argmax, x.shape());
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
  const auto res = ops::maxpool2d_forward(x, 2);
  EXPECT_TRUE(std::isnan(res.output(0, 0, 0, 0)));
  EXPECT_EQ(res.argmax[0], 0);
  EXPECT_TRUE(std::isnan(res.output(0, 1, 0, 0)));
  EXPECT_EQ(res.argmax[1], 5);
  EXPECT_EQ(res.output(0, 2, 0, 0), -1.0F);
  EXPECT_EQ(res.argmax[2], 8);
}

TEST(MaxPool, RequiresDivisibleShape) {
  Tensor x(Shape{1, 1, 3, 4});
  EXPECT_THROW(ops::maxpool2d_forward(x, 2), Error);
}

TEST(GlobalAvgPool, ForwardBackward) {
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor y = ops::global_avgpool_forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_NEAR(y(0, 0), 2.5F, 1e-6);
  EXPECT_NEAR(y(0, 1), 10.0F, 1e-6);
  Tensor g(Shape{1, 2}, {4.0F, 8.0F});
  const Tensor gx = ops::global_avgpool_backward(g, x.shape());
  EXPECT_NEAR(gx(0, 0, 0, 0), 1.0F, 1e-6);
  EXPECT_NEAR(gx(0, 1, 1, 1), 2.0F, 1e-6);
}

TEST(Conv2d, RejectsBadShapes) {
  Conv2dSpec spec{2, 3, 3, 1, 1};
  Tensor x3(Shape{2, 5, 5});
  Tensor w(Shape{3, 2, 3, 3});
  Tensor b(Shape{3});
  EXPECT_THROW(ops::conv2d_forward(x3, w, b, spec), Error);
  Tensor x(Shape{1, 2, 5, 5});
  Tensor wbad(Shape{3, 1, 3, 3});
  EXPECT_THROW(ops::conv2d_forward(x, wbad, b, spec), Error);
  Tensor bbad(Shape{2});
  EXPECT_THROW(ops::conv2d_forward(x, w, bbad, spec), Error);
}

}  // namespace
}  // namespace fhdnn
