// Tests for src/tensor: Tensor container + ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "computed.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
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

TEST(Ops, AddAndScale) {
  const Tensor a(Shape{2}, {1, 2});
  const Tensor b(Shape{2}, {3, 5});
  EXPECT_EQ(computed({2}, [&](Tensor& o) { ops::add_into(a, b, o); })(1),
            7.0F);
  EXPECT_EQ(computed({2}, [&](Tensor& o) { ops::scale_into(a, 3.0F, o); })(0),
            3.0F);
  Tensor c(Shape{3});
  EXPECT_THROW(ops::add_into(a, c, c), Error);
}

TEST(Ops, AccumulateIsAxpyByOne) {
  Rng rng(101);
  const Tensor x = Tensor::randn(Shape{7, 13}, rng);
  Tensor acc = Tensor::randn(Shape{7, 13}, rng);
  Tensor want = acc;
  ops::accumulate(acc, x);
  want.axpy(1.0F, x);
  for (std::int64_t i = 0; i < acc.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(acc.at(i)),
              std::bit_cast<std::uint32_t>(want.at(i)));
  }
}

TEST(Ops, MatmulSmall) {
  const Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c =
      computed({2, 2}, [&](Tensor& o) { ops::matmul_into(a, b, o); });
  EXPECT_EQ(c(0, 0), 58.0F);
  EXPECT_EQ(c(0, 1), 64.0F);
  EXPECT_EQ(c(1, 0), 139.0F);
  EXPECT_EQ(c(1, 1), 154.0F);
}

TEST(Ops, MatmulShapeMismatch) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{2, 2});
  Tensor c(Shape{2, 2});
  EXPECT_THROW(ops::matmul_into(a, b, c), Error);
}

TEST(Ops, MatmulVariantsAgree) {
  Rng rng(3);
  const Tensor a = Tensor::randn(Shape{4, 6}, rng);
  const Tensor b = Tensor::randn(Shape{6, 5}, rng);
  const Tensor c =
      computed({4, 5}, [&](Tensor& o) { ops::matmul_into(a, b, o); });
  // matmul_bt(a, b^T) == a b
  const Tensor bt =
      computed({5, 6}, [&](Tensor& o) { ops::transpose_into(b, o); });
  const Tensor c2 =
      computed({4, 5}, [&](Tensor& o) { ops::matmul_bt_into(a, bt, o); });
  // matmul_at(a^T, b) == a b
  const Tensor at =
      computed({6, 4}, [&](Tensor& o) { ops::transpose_into(a, o); });
  const Tensor c3 =
      computed({4, 5}, [&](Tensor& o) { ops::matmul_at_into(at, b, o); });
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), c2.at(i), 1e-4);
    EXPECT_NEAR(c.at(i), c3.at(i), 1e-4);
  }
}

TEST(Ops, TransposeRoundTrip) {
  Rng rng(4);
  const Tensor a = Tensor::rand(Shape{3, 5}, rng);
  const Tensor t1 =
      computed({5, 3}, [&](Tensor& o) { ops::transpose_into(a, o); });
  EXPECT_EQ(t1(4, 1), a(1, 4));
  const Tensor t =
      computed({3, 5}, [&](Tensor& o) { ops::transpose_into(t1, o); });
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), t.at(i));
}

TEST(Ops, LinearForward) {
  const Tensor x(Shape{1, 2}, {1, 2});
  const Tensor w(Shape{3, 2}, {1, 0, 0, 1, 1, 1});
  const Tensor b(Shape{3}, {0.5F, -0.5F, 0});
  const Tensor y = computed(
      {1, 3}, [&](Tensor& o) { ops::linear_forward_into(x, w, b, o); });
  EXPECT_EQ(y(0, 0), 1.5F);
  EXPECT_EQ(y(0, 1), 1.5F);
  EXPECT_EQ(y(0, 2), 3.0F);
}

TEST(Ops, ArgmaxRows) {
  const Tensor t(Shape{2, 3}, {0, 5, 2, 7, 1, 3});
  std::vector<std::int64_t> idx(2, -1);
  ops::argmax_rows_into(t, idx);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
  idx.resize(3);
  EXPECT_THROW(ops::argmax_rows_into(t, idx), Error);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  const Tensor t(Shape{2, 3}, {1, 2, 3, 1000, 1000, 1000});
  const Tensor p =
      computed({2, 3}, [&](Tensor& o) { ops::softmax_rows_into(t, o); });
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
  // The kernel zero-fills its output before summing into it.
  Tensor s(Shape{3}, {-9, -9, -9});
  ops::sum_rows_into(t, s);
  EXPECT_EQ(s(0), 5.0F);
  EXPECT_EQ(s(1), 7.0F);
  EXPECT_EQ(s(2), 9.0F);
}

TEST(Ops, ReluAndBackward) {
  const Tensor x(Shape{4}, {-1, 0, 2, -3});
  const Tensor y = computed({4}, [&](Tensor& o) { ops::relu_into(x, o); });
  EXPECT_EQ(y(0), 0.0F);
  EXPECT_EQ(y(2), 2.0F);
  const Tensor g(Shape{4}, {1, 1, 1, 1});
  const Tensor gx =
      computed({4}, [&](Tensor& o) { ops::relu_backward_into(g, x, o); });
  EXPECT_EQ(gx(0), 0.0F);
  EXPECT_EQ(gx(1), 0.0F);  // sign(0) treated as non-positive for grad
  EXPECT_EQ(gx(2), 1.0F);
}

TEST(Ops, MatmulRandomAgainstNaive) {
  Rng rng(5);
  const std::int64_t m = 7, k = 9, n = 8;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  const Tensor c =
      computed({m, n}, [&](Tensor& o) { ops::matmul_into(a, b, o); });
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += a(i, kk) * b(kk, j);
      EXPECT_NEAR(c(i, j), acc, 1e-4);
    }
  }
}

// The matmul family against per-element oracles: matmul and matmul_at keep
// one float chain per output (c = c + a * b from +0.0F, kk ascending),
// matmul_bt one double chain rounded once. Every available SIMD tier at 1
// and 4 threads must give those bits. m and n each sweep 1..35, so both
// matmul_bt packing directions (lanes over the smaller side) and every
// tile edge are hit; k runs over {1, 9, 144} there and 1568 at a few
// corner shapes; the Cnn2 layer shapes at the benchmark's batch of 10 and
// the HD encoder's 20 x 512 -> 10000 projection run as well. Payload 1
// writes ±0, ±Inf, NaN and subnormals. Payload 2 spreads magnitudes over
// 2^0..2^40 and pairs up random kk (p, q) with a(:, q) = a(:, p) and
// b(q, :) = -b(p, :), so every output cancels in real arithmetic and what
// is left is the rounding residue of the summation order: a reordered
// chain changes the float result, not only a double's low bits.
enum class MatmulOp { kMatmul, kMatmulBt, kMatmulAt };

struct MatmulProblem {
  MatmulOp op;
  std::int64_t m, k, n;
  Tensor a, b;

  MatmulProblem(MatmulOp o, std::int64_t m_, std::int64_t k_, std::int64_t n_,
                int payload, Rng& rng)
      : op(o), m(m_), k(k_), n(n_),
        a(Tensor::randn(o == MatmulOp::kMatmulAt ? Shape{k, m} : Shape{m, k},
                        rng)),
        b(Tensor::randn(o == MatmulOp::kMatmulBt ? Shape{n, k} : Shape{k, n},
                        rng)) {
    const float specials[] = {
        0.0F, -0.0F, std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(), -1e-39F};
    if (payload == 1) {
      for (std::size_t i = 3; i < a.vec().size(); i += 29) {
        a.vec()[i] = specials[i % 7];
      }
      for (std::size_t i = 5; i < b.vec().size(); i += 31) {
        b.vec()[i] = specials[(i + 2) % 7];
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
        for (std::int64_t i = 0; i < m; ++i) lhs(i, q) = lhs(i, p);
        for (std::int64_t j = 0; j < n; ++j) rhs(q, j) = -rhs(p, j);
      }
    }
  }

  /// The (i, kk) factor of output row i and the (kk, j) factor of column j.
  float& lhs(std::int64_t i, std::int64_t kk) {
    float* pa = a.data().data();
    return op == MatmulOp::kMatmulAt ? pa[kk * m + i] : pa[i * k + kk];
  }
  float& rhs(std::int64_t kk, std::int64_t j) {
    float* pb = b.data().data();
    return op == MatmulOp::kMatmulBt ? pb[j * k + kk] : pb[kk * n + j];
  }

  std::vector<float> naive() {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float out = 0.0F;
        if (op == MatmulOp::kMatmulBt) {
          double acc = 0.0;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            acc += static_cast<double>(lhs(i, kk)) * rhs(kk, j);
          }
          out = static_cast<float>(acc);
        } else {
          for (std::int64_t kk = 0; kk < k; ++kk) {
            out += lhs(i, kk) * rhs(kk, j);
          }
        }
        c[static_cast<std::size_t>(i * n + j)] = out;
      }
    }
    return c;
  }

  void run(Tensor& c) const {
    switch (op) {
      case MatmulOp::kMatmul:
        ops::matmul_into(a, b, c);
        break;
      case MatmulOp::kMatmulBt:
        ops::matmul_bt_into(a, b, c);
        break;
      case MatmulOp::kMatmulAt:
        ops::matmul_at_into(a, b, c);
        break;
    }
  }
};

TEST(Ops, MatmulFamilyBitExactAgainstNaive) {
  struct Restore {
    int threads;
    util::SimdTier tier;
    ~Restore() {
      parallel::set_num_threads(threads);
      util::set_simd_tier(tier);
    }
  } restore{parallel::num_threads(), util::active_simd()};
  struct Dims {
    std::int64_t m, k, n;
  };
  std::vector<Dims> dims;
  for (const std::int64_t k : {1, 9, 144}) {
    for (std::int64_t t = 1; t <= 35; ++t) {
      for (const std::int64_t other : {1, 9, 35}) {
        dims.push_back({t, k, other});
        dims.push_back({other, k, t});
      }
    }
  }
  for (const std::int64_t m : {1, 9, 35}) {
    for (const std::int64_t n : {1, 9, 35}) dims.push_back({m, 1568, n});
  }
  const std::vector<std::pair<MatmulOp, Dims>> layer_shapes = {
      {MatmulOp::kMatmulBt, {7840, 9, 16}},     // conv1 forward
      {MatmulOp::kMatmulAt, {16, 7840, 9}},     // conv1 weight grad
      {MatmulOp::kMatmul, {7840, 16, 9}},       // conv1 input grad
      {MatmulOp::kMatmulBt, {1960, 144, 32}},   // conv2 forward
      {MatmulOp::kMatmulAt, {32, 1960, 144}},   // conv2 weight grad
      {MatmulOp::kMatmul, {1960, 32, 144}},     // conv2 input grad
      {MatmulOp::kMatmulBt, {10, 1568, 128}},   // fc1 forward
      {MatmulOp::kMatmulAt, {128, 10, 1568}},   // fc1 weight grad
      {MatmulOp::kMatmul, {10, 128, 1568}},     // fc1 input grad
      {MatmulOp::kMatmulBt, {10, 128, 10}},     // fc2 forward
      {MatmulOp::kMatmulBt, {20, 512, 10000}},  // HD encoder
  };
  std::vector<std::pair<MatmulOp, Dims>> problems;
  for (const Dims& d : dims) {
    for (const auto op :
         {MatmulOp::kMatmul, MatmulOp::kMatmulBt, MatmulOp::kMatmulAt}) {
      problems.push_back({op, d});
    }
  }
  problems.insert(problems.end(), layer_shapes.begin(), layer_shapes.end());
  const std::vector<util::SimdTier> tiers = util::available_simd_tiers();
  std::uint64_t seed = 100;
  for (const auto& [op, d] : problems) {
    for (const int payload : {0, 1, 2}) {
      Rng rng(++seed);
      MatmulProblem prob(op, d.m, d.k, d.n, payload, rng);
      const std::vector<float> want = prob.naive();
      Tensor c(Shape{d.m, d.n});
      for (const auto tier : tiers) {
        util::set_simd_tier(tier);
        for (const int threads : {1, 4}) {
          parallel::set_num_threads(threads);
          std::fill(c.vec().begin(), c.vec().end(), 12345.0F);
          prob.run(c);
          for (std::size_t i = 0; i < want.size(); ++i) {
            const float got = c.vec()[i];
            // Any two NaNs match: IEEE 754 leaves the payload of NaN + NaN
            // to the implementation, and the compiler may commute it.
            const bool both_nan = std::isnan(got) && std::isnan(want[i]);
            ASSERT_TRUE(both_nan || std::bit_cast<std::uint32_t>(got) ==
                                        std::bit_cast<std::uint32_t>(want[i]))
                << "op=" << static_cast<int>(op) << " m=" << d.m
                << " k=" << d.k << " n=" << d.n << " payload=" << payload
                << " tier=" << util::simd_tier_name(tier)
                << " threads=" << threads << " at " << i << ": "
                << std::hexfloat << got << " vs naive " << want[i];
          }
        }
      }
    }
  }
}

// ops::pack_panel against its index definition, for the float panel (the
// HD classifier's) and the double one (matmul_bt's): rows across the
// groups of eight, columns across the 512-column blocks, with and without
// a column map, padded strides whose padding must stay untouched, and the
// norm chains against one double chain per row in ascending column order.
// Values span 2^-40 .. 2^40, so a reordered chain rounds differently. A
// second pass copies raw float bit patterns (NaN payloads included) into
// a float panel.
TEST(Ops, PackPanelCopiesBitsAndRunsNormChains) {
  Rng rng(58);
  constexpr std::uint32_t kUntouched = 0x7FA5A5A5U;  // a signaling NaN
  for (const std::int64_t lanes : {1, 2, 7, 8, 9, 10, 16, 17, 26, 33}) {
    for (const std::int64_t k : {1, 7, 511, 512, 513, 1100}) {
      for (const bool mapped : {false, true}) {
        const std::int64_t src_cols = mapped ? 2 * k + 1 : k;
        const std::int64_t src_rs = src_cols + 3, p_ks = lanes + 5;
        std::vector<std::int64_t> cols;
        if (mapped) {
          for (std::int64_t kk = 0; kk < k; ++kk) {
            cols.push_back(2 * kk + rng.randint(0, 1));
          }
        }
        const auto col = [&](std::int64_t kk) { return mapped ? cols[kk] : kk; };
        std::vector<float> src(static_cast<std::size_t>(lanes * src_rs));
        rng.fill_normal(src, 0.0F, 1.0F);
        for (float& v : src) {
          v = std::ldexp(v, static_cast<int>(rng.randint(-40, 40)));
        }
        std::vector<double> want_sq(static_cast<std::size_t>(lanes));
        for (std::int64_t l = 0; l < lanes; ++l) {
          double acc = 0.0;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            const double v = src[static_cast<std::size_t>(l * src_rs + col(kk))];
            acc += v * v;
          }
          want_sq[static_cast<std::size_t>(l)] = acc;
        }
        const std::int64_t* map = mapped ? cols.data() : nullptr;
        std::vector<float> fp(static_cast<std::size_t>(k * p_ks),
                              std::bit_cast<float>(kUntouched));
        std::vector<double> dp(fp.size(), -7.0);
        std::vector<double> fsq(static_cast<std::size_t>(lanes), -1.0);
        std::vector<double> dsq = fsq;
        ops::pack_panel(src.data(), src_rs, lanes, k, map, fp.data(), p_ks,
                        fsq.data());
        ops::pack_panel(src.data(), src_rs, lanes, k, map, dp.data(), p_ks,
                        dsq.data());
        for (std::int64_t kk = 0; kk < k; ++kk) {
          for (std::int64_t l = 0; l < p_ks; ++l) {
            const auto at = static_cast<std::size_t>(kk * p_ks + l);
            const float v =
                l < lanes ? src[static_cast<std::size_t>(l * src_rs + col(kk))]
                          : std::bit_cast<float>(kUntouched);
            ASSERT_EQ(std::bit_cast<std::uint32_t>(fp[at]),
                      std::bit_cast<std::uint32_t>(v))
                << "lanes=" << lanes << " k=" << k << " at " << kk << "," << l;
            ASSERT_EQ(dp[at], l < lanes ? static_cast<double>(v) : -7.0);
          }
        }
        for (std::size_t l = 0; l < want_sq.size(); ++l) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(fsq[l]),
                    std::bit_cast<std::uint64_t>(want_sq[l]))
              << "lanes=" << lanes << " k=" << k << " row " << l << ": "
              << std::hexfloat << fsq[l] << " vs " << want_sq[l];
          ASSERT_EQ(std::bit_cast<std::uint64_t>(dsq[l]),
                    std::bit_cast<std::uint64_t>(want_sq[l]));
        }
        std::vector<std::uint32_t> bits(src.size());
        for (auto& w : bits) {
          w = static_cast<std::uint32_t>(rng.randint(0, 0x7FFFFFFF)) << 1U |
              static_cast<std::uint32_t>(rng.randint(0, 1));
        }
        std::vector<std::uint32_t> got(fp.size(), kUntouched);
        ops::pack_panel(reinterpret_cast<const float*>(bits.data()), src_rs,
                        lanes, k, map, reinterpret_cast<float*>(got.data()),
                        p_ks);
        for (std::int64_t kk = 0; kk < k; ++kk) {
          for (std::int64_t l = 0; l < p_ks; ++l) {
            ASSERT_EQ(got[static_cast<std::size_t>(kk * p_ks + l)],
                      l < lanes
                          ? bits[static_cast<std::size_t>(l * src_rs + col(kk))]
                          : kUntouched)
                << "raw bits, lanes=" << lanes << " k=" << k;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fhdnn
