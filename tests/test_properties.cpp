// Cross-module property tests: mathematical invariants checked over
// parameterized sweeps (TEST_P). These pin down the *mechanisms* the paper's
// claims rest on, not specific configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <tuple>
#include <vector>

#include "channel/channel.hpp"
#include "computed.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/events.hpp"
#include "fl/hierarchy.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed.hpp"
#include "hdc/quantizer.hpp"
#include "nn/batchnorm.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "util/cpu.hpp"
#include "util/exactsum.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"
#include "util/stats.hpp"
#include "util/workspace.hpp"

namespace fhdnn {
namespace {

// ----------------------------------------------------------------------
// Convolution: im2col-based forward equals the direct definition for every
// geometry in the sweep, and col2im is its exact adjoint.
// Param: (in_channels, out_channels, kernel, stride, padding, hw)
using ConvCase = std::tuple<int, int, int, int, int, int>;

class ConvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometry, ForwardMatchesDirectDefinition) {
  const auto [ic, oc, k, s, p, hw] = GetParam();
  ops::Conv2dSpec spec{ic, oc, k, s, p};
  if (spec.out_size(hw) <= 0) GTEST_SKIP() << "degenerate geometry";
  Rng rng(static_cast<std::uint64_t>(ic * 31 + oc * 7 + k + s + p + hw));
  const Tensor x = Tensor::randn(Shape{2, ic, hw, hw}, rng);
  const Tensor w = Tensor::randn(Shape{oc, ic, k, k}, rng);
  const Tensor b = Tensor::randn(Shape{oc}, rng);
  const std::int64_t oh = spec.out_size(hw);
  const Tensor got = computed({2, oc, oh, oh}, [&](Tensor& o) {
    ops::conv2d_forward_into(x, w, b, spec, o, util::tls_workspace());
  });

  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t o = 0; o < oc; ++o) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < oh; ++ox) {
          double acc = b(o);
          for (std::int64_t c = 0; c < ic; ++c) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * s + ky - p;
                const std::int64_t ix = ox * s + kx - p;
                if (iy < 0 || iy >= hw || ix < 0 || ix >= hw) continue;
                acc += static_cast<double>(x(n, c, iy, ix)) * w(o, c, ky, kx);
              }
            }
          }
          ASSERT_NEAR(got(n, o, oy, ox), acc, 1e-3)
              << "at (" << n << "," << o << "," << oy << "," << ox << ")";
        }
      }
    }
  }
}

TEST_P(ConvGeometry, Col2imIsAdjointOfIm2col) {
  const auto [ic, oc, k, s, p, hw] = GetParam();
  (void)oc;
  ops::Conv2dSpec spec{ic, 1, k, s, p};
  if (spec.out_size(hw) <= 0) GTEST_SKIP() << "degenerate geometry";
  Rng rng(static_cast<std::uint64_t>(ic + k + s + p + hw));
  const Tensor x = Tensor::randn(Shape{1, ic, hw, hw}, rng);
  const std::int64_t oh = spec.out_size(hw);
  const Tensor cols = computed({oh * oh, ic * k * k}, [&](Tensor& o) {
    ops::im2col_into(x, spec, o);
  });
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = computed(x.shape(), [&](Tensor& o) {
    ops::col2im_into(y, spec, 1, hw, hw, o);
  });
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) lhs += cols.at(i) * y.at(i);
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x.at(i) * back.at(i);
  EXPECT_NEAR(lhs, rhs, std::abs(lhs) * 1e-4 + 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometry,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5}, ConvCase{1, 2, 3, 1, 1, 6},
                      ConvCase{2, 3, 3, 2, 1, 7}, ConvCase{3, 4, 5, 1, 2, 8},
                      ConvCase{2, 2, 3, 3, 0, 9}, ConvCase{4, 1, 2, 2, 0, 8}));

// ----------------------------------------------------------------------
// Random projection + sign is an angle-preserving hash (Goemans-Williamson):
// P[signs disagree at a dimension] = angle(x, y) / pi. This is the precise
// sense in which HD encodings preserve similarity.
class AngleHash : public ::testing::TestWithParam<double> {};

TEST_P(AngleHash, DisagreementMatchesAngleOverPi) {
  const double angle = GetParam();
  const std::int64_t d = 20000;
  Rng rng(99);
  hdc::RandomProjectionEncoder enc(8, d, rng);
  // Two unit vectors at the requested angle in a fixed 2-d subspace.
  Tensor x(Shape{8}), y(Shape{8});
  x(0) = 1.0F;
  y(0) = static_cast<float>(std::cos(angle));
  y(1) = static_cast<float>(std::sin(angle));
  const Tensor hx = enc.encode(x);
  const Tensor hy = enc.encode(y);
  std::int64_t differ = 0;
  for (std::int64_t i = 0; i < d; ++i) differ += (hx(i) != hy(i));
  const double measured = static_cast<double>(differ) / static_cast<double>(d);
  EXPECT_NEAR(measured, angle / std::numbers::pi, 0.02) << "angle " << angle;
}

INSTANTIATE_TEST_SUITE_P(Angles, AngleHash,
                         ::testing::Values(0.1, 0.5, 1.0, 1.5707963, 2.5,
                                           3.0));

// ----------------------------------------------------------------------
// HD classifier accuracy is non-decreasing (within noise) in d — more
// dimensions, more information capacity.
class DimensionSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DimensionSweep, AccuracyReasonableAtEveryD) {
  const std::int64_t d = GetParam();
  Rng rng(7);
  data::IsoletSpec spec;
  spec.dims = 32;
  spec.classes = 5;
  spec.n = 300;
  const auto ds = data::make_isolet_like(spec, rng);
  const auto split = data::train_test_split(ds, 0.25, rng);
  Rng er = rng.fork("enc");
  hdc::RandomProjectionEncoder enc(32, d, er);
  hdc::HdClassifier clf(5, d);
  clf.bundle(enc.encode(split.train.x), split.train.labels);
  const double acc =
      clf.accuracy(enc.encode(split.test.x), split.test.labels);
  // Even d=256 should beat chance handily on separable clusters; larger d
  // should be near-perfect.
  EXPECT_GT(acc, d >= 2048 ? 0.9 : 0.6) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Dims, DimensionSweep,
                         ::testing::Values<std::int64_t>(256, 1024, 4096));

// ----------------------------------------------------------------------
// Packet loss: zeroed fraction concentrates on the configured rate.
class LossRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossRateSweep, ZeroedFractionMatchesRate) {
  const double rate = GetParam();
  channel::PacketLossChannel ch(rate, 32 * 16);  // 16 floats per packet
  Rng rng(11);
  std::vector<float> payload(16 * 2000, 1.0F);
  ch.apply(payload, rng);
  std::size_t zeros = 0;
  for (const float v : payload) zeros += (v == 0.0F);
  const double measured =
      static_cast<double>(zeros) / static_cast<double>(payload.size());
  EXPECT_NEAR(measured, rate, 0.03 + rate * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Rates, LossRateSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.3, 0.5));

// ----------------------------------------------------------------------
// BSC: measured flip rate matches p_e across orders of magnitude.
class BerSweep : public ::testing::TestWithParam<double> {};

TEST_P(BerSweep, FlipRateMatches) {
  const double ber = GetParam();
  channel::BitErrorChannel ch(ber);
  Rng rng(13);
  std::vector<float> payload(200000, 1.0F);
  const auto stats = ch.apply(payload, rng);
  const double expected = ber * 32.0 * static_cast<double>(payload.size());
  EXPECT_NEAR(static_cast<double>(stats.bit_flips), expected,
              6.0 * std::sqrt(expected) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Bers, BerSweep,
                         ::testing::Values(1e-5, 1e-4, 1e-3, 1e-2));

// ----------------------------------------------------------------------
// Dirichlet partitioning: label skew decreases monotonically (on average)
// as alpha grows.
class AlphaSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(AlphaSweep, SkewOrderedByAlpha) {
  const auto [small_alpha, big_alpha] = GetParam();
  Rng rng(17);
  const auto ds = data::synthetic_mnist(800, rng);
  double skew_small = 0.0, skew_big = 0.0;
  for (int t = 0; t < 3; ++t) {
    Rng r1 = rng.fork("s" + std::to_string(t));
    Rng r2 = rng.fork("b" + std::to_string(t));
    skew_small +=
        data::label_skew(ds, data::partition_dirichlet(ds, 8, small_alpha, r1));
    skew_big +=
        data::label_skew(ds, data::partition_dirichlet(ds, 8, big_alpha, r2));
  }
  EXPECT_GT(skew_small, skew_big);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(std::pair{0.05, 1.0},
                                           std::pair{0.1, 10.0},
                                           std::pair{0.3, 100.0}));

// ----------------------------------------------------------------------
// AWGN at SNR s then AGC quantization round trip: total perturbation is
// dominated by the channel, not the quantizer, for B >= 8.
class QuantizerNoiseInteraction : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerNoiseInteraction, QuantizerErrorBelowChannelNoise) {
  const int bits = GetParam();
  Rng rng(19);
  std::vector<float> v(5000);
  rng.fill_normal(v, 0.0F, 2.0F);
  // Channel noise at 20 dB SNR: sigma = rms / 10.
  const double sigma = 0.2;
  hdc::Quantizer q(bits);
  const auto qv = q.quantize(v);
  std::vector<float> back(qv.values.size());
  q.dequantize_into(qv, back);
  double qerr = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    qerr += (back[i] - v[i]) * (back[i] - v[i]);
  }
  qerr /= static_cast<double>(v.size());
  EXPECT_LT(qerr, sigma * sigma / 4.0)
      << "B=" << bits << " quantization should be sub-channel-noise";
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerNoiseInteraction,
                         ::testing::Values(8, 12, 16));

// ----------------------------------------------------------------------
// BatchNorm normalizes every channel count in the sweep.
class BnChannels : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BnChannels, OutputsStandardized) {
  const std::int64_t c = GetParam();
  Rng rng(29);
  nn::BatchNorm2d bn(c);
  Tensor x = Tensor::randn(Shape{6, c, 4, 4}, rng, 3.0F);
  for (auto& v : x.data()) v -= 5.0F;
  const Tensor y = bn.forward(x);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    stats::Accumulator acc;
    for (std::int64_t n = 0; n < 6; ++n) {
      for (std::int64_t i = 0; i < 4; ++i) {
        for (std::int64_t j = 0; j < 4; ++j) acc.add(y(n, ch, i, j));
      }
    }
    EXPECT_NEAR(acc.mean(), 0.0, 1e-3);
    EXPECT_NEAR(acc.variance(), 1.0, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, BnChannels,
                         ::testing::Values<std::int64_t>(1, 3, 8));

// ----------------------------------------------------------------------
// Softmax + cross-entropy invariance: adding a constant to every logit of a
// row changes nothing.
class LogitShift : public ::testing::TestWithParam<float> {};

TEST_P(LogitShift, SoftmaxShiftInvariant) {
  const float shift = GetParam();
  Rng rng(31);
  const Tensor logits = Tensor::randn(Shape{4, 6}, rng, 2.0F);
  Tensor shifted = logits;
  for (auto& v : shifted.data()) v += shift;
  const Tensor p1 = computed(
      logits.shape(), [&](Tensor& o) { ops::softmax_rows_into(logits, o); });
  const Tensor p2 = computed(
      logits.shape(), [&](Tensor& o) { ops::softmax_rows_into(shifted, o); });
  for (std::int64_t i = 0; i < p1.numel(); ++i) {
    EXPECT_NEAR(p1.at(i), p2.at(i), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, LogitShift,
                         ::testing::Values(-100.0F, -1.0F, 3.0F, 50.0F));

// ----------------------------------------------------------------------
// Packed binary-HD backend: bit-for-bit agreement with the float/scalar
// oracle at dimensions straddling the 64-bit word boundary and at the
// paper-scale d = 10k (tail-mask handling is where packed code breaks).
class PackedDim : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PackedDim, PackUnpackRoundTrip) {
  const std::int64_t d = GetParam();
  Rng rng(61);
  const Tensor v = hdc::random_bipolar(d, rng);
  const hdc::PackedModel p = hdc::pack_rows(v.reshaped(Shape{1, d}));
  const Tensor back = hdc::unpack_rows(p);
  for (std::int64_t i = 0; i < d; ++i) {
    ASSERT_EQ(back.at(i), v(i)) << "i=" << i;
  }
  // Idempotent: repacking the unpacked vector reproduces the exact words.
  EXPECT_EQ(hdc::pack_rows(back).words, p.words);
}

TEST_P(PackedDim, BundleMatchesScalar) {
  const std::int64_t d = GetParam();
  Rng rng(62);
  const Tensor a = hdc::random_bipolar(d, rng);
  const Tensor b = hdc::random_bipolar(d, rng);
  const Tensor c = hdc::random_bipolar(d, rng);
  const hdc::PackedHV pa = hdc::pack_hv(a), pb = hdc::pack_hv(b),
                      pc = hdc::pack_hv(c);
  EXPECT_EQ(hdc::bundle_majority_packed({pa, pb, pc}).words,
            hdc::pack_hv(hdc::bundle_majority({a, b, c})).words);
  EXPECT_EQ(hdc::bundle_majority_packed({pa, pb}).words,
            hdc::pack_hv(hdc::bundle_majority({a, b})).words);
}

TEST_P(PackedDim, ClassifyMatchesFloatPredict) {
  const std::int64_t d = GetParam();
  Rng rng(63);
  const std::int64_t kk = 6, n = 30;
  const Tensor protos = hdc::sign(Tensor::randn(Shape{kk, d}, rng));
  const Tensor queries = hdc::sign(Tensor::randn(Shape{n, d}, rng));
  hdc::HdClassifier clf(kk, d);
  clf.set_prototypes(protos);
  EXPECT_EQ(hdc::classify_packed(hdc::pack_rows(protos),
                                 hdc::pack_rows(queries)),
            clf.predict(queries));
}

INSTANTIATE_TEST_SUITE_P(Dims, PackedDim,
                         ::testing::Values<std::int64_t>(63, 64, 65, 1000,
                                                         10000));

// ----------------------------------------------------------------------
// Event queue: the pop sequence is the (time, client, seq, kind, slot)
// total order for EVERY insertion order — the determinism the engine's
// timed rounds rest on. Param: shuffle seed.
class EventShuffle : public ::testing::TestWithParam<int> {};

TEST_P(EventShuffle, PopOrderIndependentOfPushOrder) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  // Dense collisions: few distinct times and clients, unique (client, seq).
  std::vector<fl::Event> events;
  for (std::size_t client = 0; client < 6; ++client) {
    for (std::uint64_t seq = 0; seq < 5; ++seq) {
      events.push_back({static_cast<double>(rng.randint(0, 2)), client, seq,
                        fl::EventKind::kUploadArrival, events.size()});
    }
  }
  std::vector<fl::Event> reference = events;
  std::sort(reference.begin(), reference.end(), fl::event_before);

  // Seeded Fisher–Yates shuffle, then push in that order.
  for (std::size_t i = events.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(i)));
    std::swap(events[i], events[j]);
  }
  fl::EventQueue q;
  for (const auto& e : events) q.push(e);
  for (const auto& want : reference) {
    const fl::Event got = q.pop();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.client, want.client);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.slot, want.slot);
  }
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Shuffles, EventShuffle, ::testing::Range(0, 8));

// ----------------------------------------------------------------------
// Hierarchical aggregation: a fan-in tree of edge aggregators produces
// the BIT-IDENTICAL result of flat aggregation (exact fixed-point
// summation, single rounding). Param: fan-in.
class FanInTree : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FanInTree, FloatTreeSumMatchesFlatBitExact) {
  const std::size_t fan_in = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(fan_in));
  for (const std::size_t parts_n : {1UL, 2UL, 5UL, 17UL, 48UL}) {
    // Adversarial magnitudes: catastrophic cancellation and wide exponent
    // spread, where naive float trees diverge from flat sums.
    std::vector<Tensor> parts;
    for (std::size_t p = 0; p < parts_n; ++p) {
      Tensor t(Shape{257});
      for (auto& v : t.data()) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0) *
                               std::ldexp(1.0, static_cast<int>(
                                                   rng.randint(-40, 40))));
      }
      parts.push_back(std::move(t));
    }
    util::ExactSumVector flat(257);
    for (const auto& t : parts) flat.add(t.data());
    Tensor flat_out(Shape{257});
    flat.round_to(flat_out.data());

    const Tensor tree_out = fl::hierarchical_sum(parts, fan_in);
    for (std::int64_t i = 0; i < 257; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(flat_out(i)),
                std::bit_cast<std::uint32_t>(tree_out(i)))
          << "fan_in=" << fan_in << " parts=" << parts_n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FanIns, FanInTree,
                         ::testing::Values<std::size_t>(2, 3, 16));

// ----------------------------------------------------------------------
// ExactSumVector against the limb accumulator it replaced. The oracle keeps
// the earlier representation verbatim: per element a 384-bit two's-
// complement integer in six uint64 limbs, every add carried (or borrowed)
// through to the top at once, merges as full 384-bit adds, and the same
// round-to-nearest-even over the limbs. Any grouping, permutation or tier
// of the lazy-carry accumulator must save the oracle's limbs byte for byte
// and round to its bits. Param: case seed.
class LimbOracle {
 public:
  static constexpr std::size_t kLimbs = 6;

  explicit LimbOracle(std::size_t n) : n_(n), limbs_(n * kLimbs, 0) {}

  void add(const std::vector<float>& values) {
    for (std::size_t e = 0; e < n_; ++e) {
      const auto bits = std::bit_cast<std::uint32_t>(values[e]);
      const std::uint32_t exp = (bits >> 23) & 0xFFU;
      const std::uint32_t man = bits & 0x7FFFFFU;
      const std::uint64_t m = exp == 0 ? man : (man | 0x800000U);
      const std::size_t shift = exp == 0 ? 0 : exp - 1;
      if (m == 0) continue;
      const std::size_t limb = shift / 64;
      const std::size_t off = shift % 64;
      const std::uint64_t lo = m << off;
      const std::uint64_t hi = off == 0 ? 0 : (m >> (64 - off));
      std::uint64_t* elem = limbs_.data() + e * kLimbs;
      if ((bits >> 31) == 0) {
        add_shifted(elem, limb, lo, hi);
      } else {
        sub_shifted(elem, limb, lo, hi);
      }
    }
  }

  void merge(const LimbOracle& other) {
    for (std::size_t e = 0; e < n_; ++e) {
      std::uint64_t* a = limbs_.data() + e * kLimbs;
      const std::uint64_t* b = other.limbs_.data() + e * kLimbs;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < kLimbs; ++i) {
        const std::uint64_t sum = a[i] + b[i] + carry;
        carry = (sum < b[i] || (carry != 0 && sum == b[i])) ? 1 : 0;
        a[i] = sum;
      }
    }
  }

  std::vector<std::uint32_t> round_bits() const {
    std::vector<std::uint32_t> out(n_);
    for (std::size_t e = 0; e < n_; ++e) {
      out[e] = round(limbs_.data() + e * kLimbs);
    }
    return out;
  }

  /// The image ExactSumVector::save writes for the same value.
  std::vector<std::uint8_t> image() const {
    util::SnapshotWriter w;
    w.begin_chunk("EXSV");
    w.write_u64(n_);
    w.write_u64s(limbs_);
    w.end_chunk();
    return w.finish();
  }

 private:
  static void add_shifted(std::uint64_t* limbs, std::size_t limb,
                          std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t sum = limbs[limb] + lo;
    std::uint64_t carry = sum < lo ? 1 : 0;
    limbs[limb] = sum;
    for (std::size_t i = limb + 1; i < kLimbs; ++i) {
      const std::uint64_t addend = (i == limb + 1) ? hi : 0;
      if (carry == 0 && addend == 0) break;
      sum = limbs[i] + addend + carry;
      carry = (sum < addend || (carry != 0 && sum == addend)) ? 1 : 0;
      limbs[i] = sum;
    }
  }

  static void sub_shifted(std::uint64_t* limbs, std::size_t limb,
                          std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t borrow = limbs[limb] < lo ? 1 : 0;
    limbs[limb] -= lo;
    for (std::size_t i = limb + 1; i < kLimbs; ++i) {
      const std::uint64_t sub = (i == limb + 1) ? hi : 0;
      if (borrow == 0 && sub == 0) break;
      const std::uint64_t before = limbs[i];
      limbs[i] = before - sub - borrow;
      borrow = (before < sub || (borrow != 0 && before == sub)) ? 1 : 0;
    }
  }

  static std::uint32_t round(const std::uint64_t* elem) {
    const bool negative = (elem[kLimbs - 1] >> 63) != 0;
    std::uint64_t mag[kLimbs];
    std::uint64_t carry = 1;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      if (negative) {
        mag[i] = ~elem[i] + carry;
        carry = (carry != 0 && mag[i] == 0) ? 1 : 0;
      } else {
        mag[i] = elem[i];
      }
    }
    int msb = -1;
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0 && msb < 0; --i) {
      if (mag[i] != 0) msb = i * 64 + 63 - std::countl_zero(mag[i]);
    }
    std::uint32_t bits = 0;
    if (msb >= 0 && msb <= 23) {
      bits = static_cast<std::uint32_t>(mag[0]);
    } else if (msb > 23) {
      const int lo_bit = msb - 23;
      auto bit = [&mag](int b) { return (mag[b / 64] >> (b % 64)) & 1ULL; };
      std::uint32_t sig = 0;
      for (int b = 23; b >= 0; --b) {
        sig = (sig << 1) | static_cast<std::uint32_t>(bit(lo_bit + b));
      }
      const bool guard = bit(lo_bit - 1) != 0;
      bool sticky = false;
      for (int b = 0; b < lo_bit - 1 && !sticky; ++b) sticky = bit(b) != 0;
      int p = msb;
      if (guard && (sticky || (sig & 1U) != 0)) {
        ++sig;
        if (sig == (1U << 24)) {
          sig >>= 1;
          ++p;
        }
      }
      const int exp = p - 22;
      bits = exp >= 255 ? 0x7F800000U
                        : (static_cast<std::uint32_t>(exp) << 23) |
                              (sig & 0x7FFFFFU);
    }
    return negative ? bits | 0x80000000U : bits;
  }

  std::size_t n_;
  std::vector<std::uint64_t> limbs_;
};

/// One adversarial float: a subnormal, +/-FLT_MAX, a signed zero, a value
/// spread over 2^+/-40, or any finite bit pattern at all.
float adversarial_float(Rng& rng) {
  const bool negative = rng.bernoulli(0.5);
  float v = 0.0F;
  switch (rng.randint(0, 4)) {
    case 0:
      v = std::bit_cast<float>(
          static_cast<std::uint32_t>(rng.randint(1, 0x7FFFFF)));
      break;
    case 1: v = std::numeric_limits<float>::max(); break;
    case 2: v = 0.0F; break;
    case 3:
      v = static_cast<float>(
          rng.uniform(0.5, 1.0) *
          std::ldexp(1.0, static_cast<int>(rng.randint(-40, 40))));
      break;
    default:
      v = std::bit_cast<float>(
          static_cast<std::uint32_t>(rng.randint(0, 0x7F7FFFFF)));
      break;
  }
  return negative ? -v : v;
}

class ExactSumOracle : public ::testing::TestWithParam<int> {};

TEST_P(ExactSumOracle, AnyGroupingSavesAndRoundsLikeTheLimbOracle) {
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  const auto n = static_cast<std::size_t>(rng.randint(1, 37));
  const auto k = static_cast<std::size_t>(
      GetParam() % 4 == 0 ? rng.randint(200, 600) : rng.randint(1, 40));
  std::vector<std::vector<float>> updates;
  for (std::size_t u = 0; u < k; ++u) {
    std::vector<float> x(n);
    for (auto& v : x) v = adversarial_float(rng);
    updates.push_back(x);
    if (rng.bernoulli(0.3)) {  // exact cancellation of what just went in
      for (auto& v : x) v = -v;
      updates.push_back(x);
    }
  }
  LimbOracle oracle(n);
  for (const auto& x : updates) oracle.add(x);
  const std::vector<std::uint8_t> want_image = oracle.image();
  const std::vector<std::uint32_t> want_bits = oracle.round_bits();

  const util::SimdTier before = util::active_simd();
  for (const auto tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    // Permute the updates, deal them into random groups, then merge the
    // groups pairwise in random order until one accumulator is left.
    std::vector<std::size_t> order(updates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const auto groups = static_cast<std::size_t>(
        rng.randint(1, static_cast<std::int64_t>(order.size())));
    std::vector<util::ExactSumVector> accs(groups, util::ExactSumVector(n));
    for (const std::size_t u : order) {
      accs[static_cast<std::size_t>(rng.randint(
               0, static_cast<std::int64_t>(groups) - 1))]
          .add(updates[u]);
    }
    while (accs.size() > 1) {
      const auto a = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(accs.size()) - 1));
      std::swap(accs[a], accs.back());
      const util::ExactSumVector child = std::move(accs.back());
      accs.pop_back();
      accs[static_cast<std::size_t>(rng.randint(
               0, static_cast<std::int64_t>(accs.size()) - 1))]
          .add(child);
    }
    util::SnapshotWriter w;
    w.begin_chunk("EXSV");
    accs.front().save(w);
    w.end_chunk();
    EXPECT_EQ(w.finish(), want_image) << util::simd_tier_name(tier);
    std::vector<float> got(n);
    accs.front().round_to(got);
    for (std::size_t e = 0; e < n; ++e) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[e]), want_bits[e])
          << util::simd_tier_name(tier) << " n=" << n << " k=" << k
          << " e=" << e;
    }
  }
  util::set_simd_tier(before);
}

INSTANTIATE_TEST_SUITE_P(Cases, ExactSumOracle, ::testing::Range(0, 48));

}  // namespace
}  // namespace fhdnn
