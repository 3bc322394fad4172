// Tests for src/tensor: Tensor container + ops.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

TEST(Shape, Numel) {
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({3}), 3);
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_THROW(shape_numel({2, 0}), Error);
  EXPECT_THROW(shape_numel({-1}), Error);
}

TEST(Shape, NumelOverflowThrows) {
  // 2^31 * 2^31 * 4 overflows int64; the multiply must be checked, not wrap.
  const std::int64_t big = std::int64_t{1} << 31;
  EXPECT_THROW(shape_numel({big, big, 4}), Error);
  EXPECT_THROW(shape_numel({std::numeric_limits<std::int64_t>::max(), 2}),
               Error);
  // Near-limit but representable products are fine.
  EXPECT_EQ(shape_numel({big, 2}), big * 2);
}

TEST(Shape, ToString) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.numel(), 1);
  EXPECT_EQ(t.ndim(), 0);
  EXPECT_EQ(t.at(0), 0.0F);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, FromValuesAndIndexing) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t(0, 0), 1.0F);
  EXPECT_EQ(t(0, 2), 3.0F);
  EXPECT_EQ(t(1, 0), 4.0F);
  EXPECT_EQ(t(1, 2), 6.0F);
  t(1, 1) = 9.0F;
  EXPECT_EQ(t.at(4), 9.0F);
}

TEST(Tensor, FourDimIndexing) {
  Tensor t(Shape{2, 2, 2, 2});
  t(1, 0, 1, 0) = 7.0F;
  // Row-major flat index: ((1*2+0)*2+1)*2+0 = 10.
  EXPECT_EQ(t.at(10), 7.0F);
}

TEST(Tensor, BoundsChecked) {
  Tensor t(Shape{2, 3});
  EXPECT_THROW(t(2, 0), Error);
  EXPECT_THROW(t(0, 3), Error);
  EXPECT_THROW(t(-1, 0), Error);
  EXPECT_THROW(t.at(6), Error);
  EXPECT_THROW(t(0), Error);  // wrong arity
}

TEST(Tensor, ShapeValueMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, DimNegativeIndex) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
  EXPECT_THROW(t.dim(3), Error);
}

TEST(Tensor, Factories) {
  EXPECT_EQ(Tensor::ones(Shape{3}).sum(), 3.0);
  EXPECT_EQ(Tensor::full(Shape{2}, 2.5F).sum(), 5.0);
  const Tensor f = Tensor::from({1.0F, -1.0F});
  EXPECT_EQ(f.dim(0), 2);
  EXPECT_EQ(f(1), -1.0F);
}

TEST(Tensor, RandnStats) {
  Rng rng(1);
  const Tensor t = Tensor::randn(Shape{10000}, rng, 2.0F);
  EXPECT_NEAR(t.mean(), 0.0, 0.1);
  double var = 0.0;
  for (const float v : t.data()) var += v * v;
  EXPECT_NEAR(var / 10000.0, 4.0, 0.3);
}

TEST(Tensor, RandBounds) {
  Rng rng(2);
  const Tensor t = Tensor::rand(Shape{1000}, rng, -2.0F, -1.0F);
  EXPECT_GE(t.min(), -2.0F);
  EXPECT_LT(t.max(), -1.0F);
}

TEST(Tensor, Reshape) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), Error);
}

TEST(Tensor, Reductions) {
  Tensor t(Shape{4}, {1, -2, 3, 0});
  EXPECT_EQ(t.sum(), 2.0);
  EXPECT_EQ(t.mean(), 0.5);
  EXPECT_EQ(t.min(), -2.0F);
  EXPECT_EQ(t.max(), 3.0F);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(14.0), 1e-6);
}

TEST(Tensor, AxpyAndScale) {
  Tensor a(Shape{3}, {1, 2, 3});
  const Tensor b(Shape{3}, {1, 1, 1});
  a.axpy(2.0F, b);
  EXPECT_EQ(a(0), 3.0F);
  EXPECT_EQ(a(2), 5.0F);
  a.scale(0.5F);
  EXPECT_EQ(a(0), 1.5F);
  Tensor c(Shape{2});
  EXPECT_THROW(a.axpy(1.0F, c), Error);
}

TEST(Tensor, EnsureShapeReusesCapacityAndChecksDims) {
  Tensor t(Shape{4, 8});
  const float* before = t.data().data();
  t.ensure_shape({8, 2});  // smaller: must reuse the existing buffer
  EXPECT_EQ(t.shape(), (Shape{8, 2}));
  EXPECT_EQ(t.numel(), 16);
  EXPECT_EQ(t.data().data(), before);
  t.ensure_shape(Shape{4, 8});  // back to the original size: still no growth
  EXPECT_EQ(t.data().data(), before);
  // Same shape is a no-op that preserves contents.
  t.fill(3.0F);
  t.ensure_shape({4, 8});
  EXPECT_EQ(t.at(0), 3.0F);
  // Invalid dims go through shape_numel's checks.
  EXPECT_THROW(t.ensure_shape({0, 3}), Error);
  EXPECT_THROW(t.ensure_shape({-2}), Error);
}

TEST(Tensor, AssertInvariantDetectsResizedBuffer) {
  Tensor t(Shape{2, 3});
  t.assert_invariant();  // healthy tensor passes
  // vec() exposes the raw vector for serialization; resizing it behind the
  // shape's back breaks the invariant that assert_invariant guards.
  t.vec().resize(5);
  EXPECT_THROW(t.assert_invariant(), Error);
  t.vec().resize(6);
  t.assert_invariant();
}

// ---------------------------------------------------------------- ops

TEST(Ops, AddSubMul) {
  const Tensor a(Shape{2}, {1, 2});
  const Tensor b(Shape{2}, {3, 5});
  EXPECT_EQ(ops::add(a, b)(1), 7.0F);
  EXPECT_EQ(ops::sub(b, a)(0), 2.0F);
  EXPECT_EQ(ops::mul(a, b)(1), 10.0F);
  EXPECT_EQ(ops::scale(a, 3.0F)(0), 3.0F);
  const Tensor c(Shape{3});
  EXPECT_THROW(ops::add(a, c), Error);
}

TEST(Ops, MatmulSmall) {
  const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c(0, 0), 58.0F);
  EXPECT_EQ(c(0, 1), 64.0F);
  EXPECT_EQ(c(1, 0), 139.0F);
  EXPECT_EQ(c(1, 1), 154.0F);
}

TEST(Ops, MatmulShapeMismatch) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{2, 2});
  EXPECT_THROW(ops::matmul(a, b), Error);
}

TEST(Ops, MatmulVariantsAgree) {
  Rng rng(3);
  const Tensor a = Tensor::randn(Shape{4, 6}, rng);
  const Tensor b = Tensor::randn(Shape{6, 5}, rng);
  const Tensor c = ops::matmul(a, b);
  // matmul_bt(a, b^T) == a b
  const Tensor bt = ops::transpose(b);
  const Tensor c2 = ops::matmul_bt(a, bt);
  // matmul_at(a^T, b) == a b
  const Tensor at = ops::transpose(a);
  const Tensor c3 = ops::matmul_at(at, b);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), c2.at(i), 1e-4);
    EXPECT_NEAR(c.at(i), c3.at(i), 1e-4);
  }
}

TEST(Ops, TransposeRoundTrip) {
  Rng rng(4);
  const Tensor a = Tensor::rand(Shape{3, 5}, rng);
  const Tensor t = ops::transpose(ops::transpose(a));
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), t.at(i));
}

TEST(Ops, LinearForward) {
  const Tensor x(Shape{1, 2}, {1, 2});
  const Tensor w(Shape{3, 2}, {1, 0, 0, 1, 1, 1});
  const Tensor b(Shape{3}, {0.5F, -0.5F, 0});
  const Tensor y = ops::linear_forward(x, w, b);
  EXPECT_EQ(y(0, 0), 1.5F);
  EXPECT_EQ(y(0, 1), 1.5F);
  EXPECT_EQ(y(0, 2), 3.0F);
}

TEST(Ops, ArgmaxRows) {
  const Tensor t(Shape{2, 3}, {0, 5, 2, 7, 1, 3});
  const auto idx = ops::argmax_rows(t);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  const Tensor t(Shape{2, 3}, {1, 2, 3, 1000, 1000, 1000});
  const Tensor p = ops::softmax_rows(t);
  for (std::int64_t i = 0; i < 2; ++i) {
    double s = 0.0;
    for (std::int64_t j = 0; j < 3; ++j) {
      s += p(i, j);
      EXPECT_GE(p(i, j), 0.0F);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
  // Large logits don't overflow (stabilized).
  EXPECT_NEAR(p(1, 0), 1.0 / 3.0, 1e-5);
}

TEST(Ops, SumRows) {
  const Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor s = ops::sum_rows(t);
  EXPECT_EQ(s(0), 5.0F);
  EXPECT_EQ(s(1), 7.0F);
  EXPECT_EQ(s(2), 9.0F);
}

TEST(Ops, DotAndCosine) {
  const Tensor a(Shape{3}, {1, 0, 1});
  const Tensor b(Shape{3}, {1, 1, 0});
  EXPECT_EQ(ops::dot(a, b), 1.0);
  EXPECT_NEAR(ops::cosine_similarity(a, b), 0.5, 1e-6);
  EXPECT_NEAR(ops::cosine_similarity(a, a), 1.0, 1e-6);
  const Tensor z(Shape{3});
  EXPECT_EQ(ops::cosine_similarity(a, z), 0.0);
}

TEST(Ops, ReluAndBackward) {
  const Tensor x(Shape{4}, {-1, 0, 2, -3});
  const Tensor y = ops::relu(x);
  EXPECT_EQ(y(0), 0.0F);
  EXPECT_EQ(y(2), 2.0F);
  const Tensor g(Shape{4}, {1, 1, 1, 1});
  const Tensor gx = ops::relu_backward(g, x);
  EXPECT_EQ(gx(0), 0.0F);
  EXPECT_EQ(gx(1), 0.0F);  // sign(0) treated as non-positive for grad
  EXPECT_EQ(gx(2), 1.0F);
}

TEST(Ops, MatmulRandomAgainstNaive) {
  Rng rng(5);
  const std::int64_t m = 7, k = 9, n = 8;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  const Tensor c = ops::matmul(a, b);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += a(i, kk) * b(kk, j);
      EXPECT_NEAR(c(i, j), acc, 1e-4);
    }
  }
}


// matmul_bt_into blocks four output columns at a time; each output must
// still be the one sequential double sum of the naive loop, bit for bit.
// n runs over every residue mod 4 on both sides of one block. Payload 1
// writes ±0, ±Inf and NaN. Payload 2 spreads magnitudes over 2^0..2^40 and
// pairs up random columns (p, q) with a(:, q) = a(:, p), b(:, q) = -b(:, p),
// so every output cancels in real arithmetic and what is left is the
// rounding residue of the summation order: a reordered sum changes the
// float result, not only the double's low bits.
TEST(Ops, MatmulBtBitExactAgainstNaive) {
  const float specials[] = {0.0F, -0.0F, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  struct RestoreThreads {
    int n;
    ~RestoreThreads() { parallel::set_num_threads(n); }
  } restore{parallel::num_threads()};
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (const std::int64_t k : {1, 7, 4096}) {
      for (std::int64_t n = 1; n <= 9; ++n) {
        for (const int payload : {0, 1, 2}) {
          Rng rng(static_cast<std::uint64_t>(100 * k + n));
          const std::int64_t m = 5;
          Tensor a = Tensor::randn(Shape{m, k}, rng);
          Tensor b = Tensor::randn(Shape{n, k}, rng);
          if (payload == 1) {
            for (std::size_t i = 3; i < a.vec().size(); i += 29) {
              a.vec()[i] = specials[i % 5];
            }
            for (std::size_t i = 5; i < b.vec().size(); i += 31) {
              b.vec()[i] = specials[(i + 2) % 5];
            }
          }
          if (payload == 2) {
            for (std::vector<float>* t : {&a.vec(), &b.vec()}) {
              for (float& v : *t) {
                v = std::ldexp(v, static_cast<int>(rng.randint(0, 40)));
              }
            }
            std::vector<std::int64_t> cols(static_cast<std::size_t>(k));
            for (std::int64_t kk = 0; kk < k; ++kk) {
              cols[static_cast<std::size_t>(kk)] = kk;
            }
            rng.shuffle(cols);
            for (std::size_t t = 0; t + 1 < cols.size(); t += 2) {
              const std::int64_t p = cols[t], q = cols[t + 1];
              for (std::int64_t i = 0; i < m; ++i) a(i, q) = a(i, p);
              for (std::int64_t j = 0; j < n; ++j) b(j, q) = -b(j, p);
            }
          }
          Tensor c(Shape{m, n});
          ops::matmul_bt_into(a, b, c);
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              double acc = 0.0;
              for (std::int64_t kk = 0; kk < k; ++kk) {
                acc += static_cast<double>(a(i, kk)) * b(j, kk);
              }
              const float want = static_cast<float>(acc);
              // Any two NaNs match: IEEE 754 leaves the payload of NaN + NaN
              // to the implementation, and the compiler may commute it.
              const bool both_nan = std::isnan(c(i, j)) && std::isnan(want);
              ASSERT_TRUE(both_nan || std::bit_cast<std::uint32_t>(c(i, j)) ==
                                          std::bit_cast<std::uint32_t>(want))
                  << "k=" << k << " n=" << n << " payload=" << payload
                  << " threads=" << threads
                  << " at (" << i << ", " << j << "): " << std::hexfloat
                  << c(i, j) << " vs naive " << want;
            }
          }
        }
      }
    }
  }
}

// dot_rows is matmul_bt's reduction without the final rounding to float:
// exact double sums for any row count, and +0.0 for an empty inner dim
// (views cannot express k = 0, so this is where that edge is pinned).
TEST(Ops, DotRowsBitExactAgainstNaive) {
  Rng rng(6);
  for (const std::int64_t len : {0, 1, 63, 1000}) {
    for (std::int64_t nrows = 0; nrows <= 9; ++nrows) {
      std::vector<float> x(static_cast<std::size_t>(len));
      std::vector<float> rows(static_cast<std::size_t>(nrows * len));
      rng.fill_normal(x, 0.0F, 1.0F);
      rng.fill_normal(rows, 0.0F, 1.0F);
      std::vector<double> out(static_cast<std::size_t>(nrows), -1.0);
      ops::dot_rows(x.data(), rows.data(), nrows, len, out.data());
      for (std::int64_t r = 0; r < nrows; ++r) {
        double want = 0.0;
        for (std::int64_t j = 0; j < len; ++j) {
          want += static_cast<double>(x[static_cast<std::size_t>(j)]) *
                  rows[static_cast<std::size_t>(r * len + j)];
        }
        const double got = out[static_cast<std::size_t>(r)];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "len=" << len << " nrows=" << nrows << " row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace fhdnn
