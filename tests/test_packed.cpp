// Tests for the bit-packed binary-HD backend (hdc/packed) and the runtime
// SIMD dispatch layer (util/cpu, util/simd): layout invariants, exact
// agreement with the float/scalar oracle, and per-tier bit-exactness of
// the dispatched kernels — including NaN/Inf/-0.0 payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "hdc/classifier.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace fhdnn {
namespace {

using namespace fhdnn::hdc;

// --------------------------------------------------------------- layout

TEST(PackedLayout, WordsAndTailMask) {
  EXPECT_EQ(words_for_bits(1), 1);
  EXPECT_EQ(words_for_bits(63), 1);
  EXPECT_EQ(words_for_bits(64), 1);
  EXPECT_EQ(words_for_bits(65), 2);
  EXPECT_EQ(words_for_bits(128), 2);
  EXPECT_EQ(tail_mask(64), ~0ULL);
  EXPECT_EQ(tail_mask(128), ~0ULL);
  EXPECT_EQ(tail_mask(1), 1ULL);
  EXPECT_EQ(tail_mask(63), (1ULL << 63) - 1ULL);
  EXPECT_EQ(tail_mask(65), 1ULL);
}

TEST(PackedLayout, TailBitsStayZero) {
  Rng rng(41);
  const std::int64_t d = 70;  // 6 live bits in the second word
  const Tensor v = random_bipolar(d, rng);
  PackedHV p = pack_hv(v);
  EXPECT_EQ(p.words.size(), 2U);
  EXPECT_EQ(p.words[1] & ~tail_mask(d), 0ULL);
  // ... and the invariant survives the packed ops.
  const PackedHV q = pack_hv(random_bipolar(d, rng));
  EXPECT_EQ(bundle_majority_packed({p, q}).words[1] & ~tail_mask(d), 0ULL);
}

TEST(PackedLayout, PackedModelRowsAreWordAligned) {
  Rng rng(42);
  const Tensor m = sign(Tensor::randn(Shape{3, 70}, rng));
  const PackedModel pm = pack_rows(m);
  EXPECT_EQ(pm.words_per_row(), 2);
  EXPECT_EQ(pm.words.size(), 6U);
  for (std::int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(pm.row(r)[1] & ~tail_mask(70), 0ULL);
  }
  const Tensor back = unpack_rows(pm);
  for (std::int64_t i = 0; i < m.numel(); ++i) EXPECT_EQ(back.at(i), m.at(i));
}

TEST(PackedLayout, SignZeroConvention) {
  // pack follows the library's sign(0) := +1, and NaN packs as -1
  // (matching the `>= 0` comparison it is defined by).
  Tensor v(Shape{4}, {0.0F, -0.0F, 1.5F, -2.0F});
  // Bit i set <=> element i is +1; -0.0f >= 0.0f packs as +1.
  EXPECT_EQ(pack_hv(v).words[0], 0b0111ULL);
  Tensor w(Shape{2}, {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity()});
  EXPECT_EQ(pack_hv(w).words[0], 0b10ULL);  // NaN >= 0 is false
}

// ------------------------------------------------- scalar-oracle parity

TEST(PackedOps, BundleMajorityMatchesFloatPath) {
  Rng rng(46);
  for (const int n : {1, 2, 3, 4, 5, 8}) {
    std::vector<Tensor> vs;
    std::vector<PackedHV> ps;
    for (int i = 0; i < n; ++i) {
      vs.push_back(random_bipolar(777, rng));
      ps.push_back(pack_hv(vs.back()));
    }
    const PackedHV got = bundle_majority_packed(ps);
    const PackedHV want = pack_hv(bundle_majority(vs));
    EXPECT_EQ(got.words, want.words) << "n=" << n;
  }
}

TEST(PackedOps, EvenSplitTieBreaksByIndexParity) {
  // Regression for the tie bias: an exact 50/50 split must resolve +1 at
  // even indices and -1 at odd ones — both float and packed paths.
  Rng rng(47);
  const std::int64_t d = 130;
  const Tensor v = random_bipolar(d, rng);
  Tensor nv = v;
  nv.scale(-1.0F);
  const Tensor maj = bundle_majority({v, nv});
  for (std::int64_t i = 0; i < d; ++i) {
    EXPECT_EQ(maj(i), i % 2 == 0 ? 1.0F : -1.0F) << "index " << i;
  }
  const PackedHV pmaj = bundle_majority_packed({pack_hv(v), pack_hv(nv)});
  EXPECT_EQ(pmaj.words, pack_hv(maj).words);
  // No net bias: the tied bundle sums to ~zero, not +d.
  double total = 0.0;
  for (std::int64_t i = 0; i < d; ++i) total += maj(i);
  EXPECT_EQ(total, 0.0);
}

TEST(PackedOps, Validation) {
  EXPECT_THROW(bundle_majority_packed({}), Error);
}

// ------------------------------------------------- model-level agreement

TEST(PackedModelOps, ClassifyPackedMatchesPredict) {
  Rng rng(50);
  const std::int64_t kk = 7, d = 1000, n = 40;
  const Tensor protos = sign(Tensor::randn(Shape{kk, d}, rng));
  const Tensor queries = sign(Tensor::randn(Shape{n, d}, rng));
  HdClassifier clf(kk, d);
  clf.set_prototypes(protos);
  const auto want = clf.predict(queries);
  const auto got = classify_packed(pack_rows(protos), pack_rows(queries));
  EXPECT_EQ(got, want);
}

// ------------------------------------------------------ runtime dispatch

TEST(SimdDispatch, ParseNames) {
  EXPECT_EQ(util::parse_simd_tier("scalar"), util::SimdTier::Scalar);
  EXPECT_EQ(util::parse_simd_tier("neon"), util::SimdTier::Neon);
  EXPECT_EQ(util::parse_simd_tier("avx2"), util::SimdTier::Avx2);
  EXPECT_EQ(util::parse_simd_tier("avx512"), util::SimdTier::Avx512);
  EXPECT_EQ(util::parse_simd_tier("native"), util::detected_simd());
  EXPECT_THROW(util::parse_simd_tier("sse9"), Error);
  for (const auto t :
       {util::SimdTier::Scalar, util::SimdTier::Neon, util::SimdTier::Avx2,
        util::SimdTier::Avx512}) {
    EXPECT_EQ(util::parse_simd_tier(util::simd_tier_name(t)), t);
  }
}

TEST(SimdDispatch, SetTierClampsToDetected) {
  const util::SimdTier before = util::active_simd();
  // Scalar is always accepted.
  EXPECT_EQ(util::set_simd_tier(util::SimdTier::Scalar),
            util::SimdTier::Scalar);
  EXPECT_EQ(util::active_simd(), util::SimdTier::Scalar);
  // Requesting the detected tier is exact; wider requests clamp down.
  const util::SimdTier det = util::detected_simd();
  EXPECT_EQ(util::set_simd_tier(det), det);
  EXPECT_LE(static_cast<int>(util::set_simd_tier(util::SimdTier::Avx512)),
            static_cast<int>(det));
  // available_simd_tiers() lists exactly the requests that stick.
  const auto avail = util::available_simd_tiers();
  for (const auto t :
       {util::SimdTier::Scalar, util::SimdTier::Neon, util::SimdTier::Avx2,
        util::SimdTier::Avx512}) {
    EXPECT_EQ(std::find(avail.begin(), avail.end(), t) != avail.end(),
              util::set_simd_tier(t) == t)
        << util::simd_tier_name(t);
  }
  util::set_simd_tier(before);
}

TEST(SimdDispatch, X86TierRequiresEveryCompiledExtension) {
  using util::SimdTier;
  const util::X86Features all{.avx2 = true,
                              .popcnt = true,
                              .pclmul = true,
                              .avx512f = true,
                              .avx512bw = true};
  EXPECT_EQ(util::x86_tier(all), SimdTier::Avx512);
  EXPECT_EQ(util::x86_tier(util::X86Features{}), SimdTier::Scalar);
  // Any one of the Avx2 set missing drops below Avx2, even with AVX-512.
  for (bool util::X86Features::*flag : {&util::X86Features::avx2,
                                        &util::X86Features::popcnt,
                                        &util::X86Features::pclmul}) {
    util::X86Features f = all;
    f.*flag = false;
    EXPECT_EQ(util::x86_tier(f), SimdTier::Scalar);
  }
  // Missing either AVX-512 extension drops to Avx2.
  for (bool util::X86Features::*flag :
       {&util::X86Features::avx512f, &util::X86Features::avx512bw}) {
    util::X86Features f = all;
    f.*flag = false;
    EXPECT_EQ(util::x86_tier(f), SimdTier::Avx2);
  }
}

/// Float payload mixing ordinary values with the IEEE-754 specials that
/// SIMD re-implementations most often mishandle. Specials are scattered so
/// they land in different vector lanes and in the scalar tail.
std::vector<float> special_payload(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  rng.fill_normal(v, 0.0F, 2.0F);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0F,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-38F};
  for (std::size_t i = 0; i < n; i += 7) {
    v[i] = specials[(i / 7) % 6];
  }
  return v;
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want, const char* what,
                       util::SimdTier tier) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " diverges from scalar at i=" << i << " under tier "
        << util::simd_tier_name(tier);
  }
}

TEST(SimdKernels, FloatKernelsBitExactAcrossTiers) {
  Rng rng(51);
  // Odd length: exercises both the full vector body and the scalar tail.
  const std::size_t n = 1013;
  const std::vector<float> x = special_payload(n, rng);
  std::vector<float> y0(n);
  rng.fill_normal(y0, 1.0F, 3.0F);
  const auto& scalar = simd::detail::scalar_table();
  for (const auto tier : util::available_simd_tiers()) {
    const auto& k = simd::kernels_for(tier);
    for (const float a : {0.5F, -1.25F, 0.0F, 1.0F}) {
      std::vector<float> want = y0, got = y0;
      scalar.axpy_f32(want.data(), a, x.data(), static_cast<std::int64_t>(n));
      k.axpy_f32(got.data(), a, x.data(), static_cast<std::int64_t>(n));
      expect_bits_equal(got, want, "axpy", tier);

      std::vector<float> ws(n), gs(n);
      scalar.scale_f32(ws.data(), x.data(), a, static_cast<std::int64_t>(n));
      k.scale_f32(gs.data(), x.data(), a, static_cast<std::int64_t>(n));
      expect_bits_equal(gs, ws, "scale", tier);
    }
    std::vector<float> w(n), g(n);
    scalar.add_f32(w.data(), x.data(), y0.data(),
                   static_cast<std::int64_t>(n));
    k.add_f32(g.data(), x.data(), y0.data(), static_cast<std::int64_t>(n));
    expect_bits_equal(g, w, "add", tier);
  }
}

TEST(SimdKernels, BitKernelsExactAcrossTiers) {
  Rng rng(52);
  const std::int64_t nbits = 1013;
  const std::int64_t nwords = (nbits + 63) / 64;
  const std::vector<float> src = special_payload(
      static_cast<std::size_t>(nbits), rng);
  const auto& scalar = simd::detail::scalar_table();
  std::vector<std::uint64_t> want_bits(static_cast<std::size_t>(nwords));
  scalar.pack_signs(src.data(), want_bits.data(), nbits);
  std::vector<std::uint64_t> other(static_cast<std::size_t>(nwords));
  for (std::size_t w = 0; w < other.size(); ++w) {
    other[w] = rng.next_u64();
  }
  other.back() &= tail_mask(nbits);
  for (const auto tier : util::available_simd_tiers()) {
    const auto& k = simd::kernels_for(tier);
    std::vector<std::uint64_t> got_bits(static_cast<std::size_t>(nwords));
    k.pack_signs(src.data(), got_bits.data(), nbits);
    EXPECT_EQ(got_bits, want_bits) << util::simd_tier_name(tier);

    std::vector<float> want_f(static_cast<std::size_t>(nbits));
    std::vector<float> got_f(static_cast<std::size_t>(nbits));
    scalar.unpack_signs(want_bits.data(), want_f.data(), nbits);
    k.unpack_signs(want_bits.data(), got_f.data(), nbits);
    expect_bits_equal(got_f, want_f, "unpack_signs", tier);

    EXPECT_EQ(k.hamming_words(want_bits.data(), other.data(), nwords),
              scalar.hamming_words(want_bits.data(), other.data(), nwords))
        << util::simd_tier_name(tier);
  }
}

// The exact-sum kernel: the chunk images it leaves are integers, so every
// tier must leave the scalar oracle's, over any bit pattern (non-finite
// ones included: the accumulator rejects them first, but the kernel still
// must not write outside their element), ragged lengths around the 8-lane
// step, and chunks that already hold pending values. A sentinel past the
// last element catches a tail lane that writes too far.
TEST(SimdKernels, ExactAccumulateIdenticalAcrossTiers) {
  Rng rng(57);
  const auto& scalar = simd::detail::scalar_table();
  constexpr std::int64_t kC = simd::kExactChunks;
  constexpr std::int64_t kSentinel = 0x5A5A5A5A5A5A5A5ALL;
  for (std::int64_t n = 0; n <= 41; ++n) {
    std::vector<float> x(static_cast<std::size_t>(n));
    for (auto& v : x) {
      v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
    }
    std::vector<std::int64_t> start(static_cast<std::size_t>(n * kC + 1));
    for (auto& c : start) {
      c = static_cast<std::int64_t>(rng.next_u64() >> 2U) - (1LL << 61);
    }
    start.back() = kSentinel;
    std::vector<std::int64_t> want = start;
    scalar.exact_accumulate_f32(want.data(), x.data(), n);
    ASSERT_EQ(want.back(), kSentinel) << "n=" << n;
    for (const auto tier : util::available_simd_tiers()) {
      std::vector<std::int64_t> got = start;
      simd::kernels_for(tier).exact_accumulate_f32(got.data(), x.data(), n);
      ASSERT_EQ(got, want) << util::simd_tier_name(tier) << " n=" << n;
    }
  }
  // Anchors: 1.0f is 2^149 quanta, bit 21 of chunk 4; -(smallest
  // subnormal) is -1 in chunk 0; FLT_MAX is (2^24 - 1) * 2^253 quanta,
  // split across chunks 7 and 8 at bit 29.
  const std::vector<float> anchors = {1.0F, -std::bit_cast<float>(1U),
                                      std::numeric_limits<float>::max()};
  for (const auto tier : util::available_simd_tiers()) {
    std::vector<std::int64_t> chunks(anchors.size() * kC, 0);
    simd::kernels_for(tier).exact_accumulate_f32(
        chunks.data(), anchors.data(),
        static_cast<std::int64_t>(anchors.size()));
    std::vector<std::int64_t> want(chunks.size(), 0);
    want[4] = 1LL << 21;
    want[kC + 0] = -1;
    const std::uint64_t max_bits = ((1ULL << 24) - 1) << 29;
    want[2 * kC + 7] = static_cast<std::int64_t>(max_bits & 0xFFFFFFFFULL);
    want[2 * kC + 8] = static_cast<std::int64_t>(max_bits >> 32);
    EXPECT_EQ(chunks, want) << util::simd_tier_name(tier);
  }
}

// The GEMM microkernels against per-element oracles written here: a double
// chain from +0.0 rounded once (gemm_dot_f64) and a float chain from +0.0F
// (gemm_axpy_f32), each in ascending kk. Rows and lanes each sweep 1..35,
// past every register-tile edge of every tier, in the three layouts the
// matmul family uses: contiguous x rows, strided x columns (matmul_at),
// and transposed stores (matmul_bt with lanes over rows). Panel padding
// holds NaN and unwritten output holds a sentinel, so a kernel that reads
// or writes outside its listed elements fails too. Payloads: normal, the
// IEEE specials, and "cancelling" pairs of kk whose products cancel
// exactly, so any reordered chain changes the rounded result.
enum class GemmPayload { kNormal, kSpecial, kCancelling };

struct GemmCase {
  std::int64_t rows, lanes, k;
  int layout;  // 0: x rows, 1: x columns, 2: transposed out
  GemmPayload payload;
};

template <typename Panel>
struct GemmBuffers {
  std::vector<float> x;
  std::vector<Panel> p;
  template <typename Out>
  simd::GemmArgs<Panel, Out> args(std::vector<Out>& c, const GemmCase& gc) {
    const std::int64_t r = gc.rows, l = gc.lanes, k = gc.k;
    simd::GemmArgs<Panel, Out> g{.x = x.data(), .x_rs = k, .x_ks = 1,
                            .p = p.data(), .p_ks = l + 3, .c = c.data(),
                            .c_rs = l + 2, .c_ls = 1, .rows = r, .lanes = l,
                            .k = k};
    if (gc.layout == 1) {
      g.x_rs = 1;
      g.x_ks = r;
    }
    if (gc.layout == 2) {
      g.c_rs = 1;
      g.c_ls = r;
    }
    return g;
  }
};

constexpr float kSentinel = 12345.0F;

template <typename Panel>
GemmBuffers<Panel> make_gemm_buffers(const GemmCase& gc, Rng& rng) {
  const std::int64_t r = gc.rows, l = gc.lanes, k = gc.k;
  const std::int64_t p_ks = l + 3;
  // x holds (row, kk) at row * x_rs + kk * x_ks, as args() lays it out;
  // pf is the dense (k x lanes) panel before padding.
  const std::int64_t x_rs = gc.layout == 1 ? 1 : k;
  const std::int64_t x_ks = gc.layout == 1 ? r : 1;
  std::vector<float> x(static_cast<std::size_t>(r * k));
  std::vector<float> pf(static_cast<std::size_t>(k * l));
  if (gc.payload == GemmPayload::kSpecial) {
    x = special_payload(x.size(), rng);
    pf = special_payload(pf.size(), rng);
  } else {
    rng.fill_normal(x, 0.0F, 1.0F);
    rng.fill_normal(pf, 0.0F, 1.0F);
  }
  if (gc.payload == GemmPayload::kCancelling) {
    for (std::vector<float>* t : {&x, &pf}) {
      for (float& v : *t) {
        v = std::ldexp(v, static_cast<int>(rng.randint(0, 40)));
      }
    }
    std::vector<std::int64_t> order(static_cast<std::size_t>(k));
    for (std::int64_t kk = 0; kk < k; ++kk) {
      order[static_cast<std::size_t>(kk)] = kk;
    }
    rng.shuffle(order);
    for (std::size_t t = 0; t + 1 < order.size(); t += 2) {
      const std::int64_t a = order[t], b = order[t + 1];
      for (std::int64_t row = 0; row < r; ++row) {
        x[static_cast<std::size_t>(row * x_rs + b * x_ks)] =
            x[static_cast<std::size_t>(row * x_rs + a * x_ks)];
      }
      for (std::int64_t lane = 0; lane < l; ++lane) {
        pf[static_cast<std::size_t>(b * l + lane)] =
            -pf[static_cast<std::size_t>(a * l + lane)];
      }
    }
  }
  GemmBuffers<Panel> out{std::move(x), {}};
  out.p.assign(static_cast<std::size_t>(k * p_ks),
               std::numeric_limits<Panel>::quiet_NaN());
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t lane = 0; lane < l; ++lane) {
      out.p[static_cast<std::size_t>(kk * p_ks + lane)] =
          pf[static_cast<std::size_t>(kk * l + lane)];
    }
  }
  return out;
}

/// Per-element oracle, then every tier's kernel, compared bit for bit (any
/// NaN matches any NaN: IEEE 754 leaves NaN + NaN's payload open).
template <typename Acc, typename Panel>
void expect_gemm_kernel_bit_exact(
    void (*const simd::Kernels::*kernel)(const simd::GemmArgs<Panel>&),
    const GemmCase& gc, Rng& rng) {
  GemmBuffers<Panel> buf = make_gemm_buffers<Panel>(gc, rng);
  const std::int64_t c_size = gc.rows * (gc.lanes + 2);
  std::vector<float> want(static_cast<std::size_t>(c_size), kSentinel);
  std::vector<float> c = want;
  const simd::GemmArgs<Panel> g = buf.args(want, gc);
  for (std::int64_t r = 0; r < g.rows; ++r) {
    for (std::int64_t l = 0; l < g.lanes; ++l) {
      Acc acc = 0;
      for (std::int64_t kk = 0; kk < g.k; ++kk) {
        acc += static_cast<Acc>(g.x[r * g.x_rs + kk * g.x_ks]) *
               g.p[kk * g.p_ks + l];
      }
      want[static_cast<std::size_t>(r * g.c_rs + l * g.c_ls)] =
          static_cast<float>(acc);
    }
  }
  for (const auto tier : util::available_simd_tiers()) {
    std::fill(c.begin(), c.end(), kSentinel);
    (simd::kernels_for(tier).*kernel)(buf.args(c, gc));
    for (std::size_t i = 0; i < c.size(); ++i) {
      const bool both_nan = std::isnan(c[i]) && std::isnan(want[i]);
      ASSERT_TRUE(both_nan || std::bit_cast<std::uint32_t>(c[i]) ==
                                  std::bit_cast<std::uint32_t>(want[i]))
          << util::simd_tier_name(tier) << " rows=" << gc.rows
          << " lanes=" << gc.lanes << " k=" << gc.k
          << " layout=" << gc.layout
          << " payload=" << static_cast<int>(gc.payload) << " at " << i
          << ": " << std::hexfloat << c[i] << " vs oracle " << want[i];
    }
  }
}

TEST(SimdKernels, GemmKernelsBitExactAcrossTiers) {
  Rng rng(54);
  std::vector<GemmCase> cases;
  for (const auto payload : {GemmPayload::kNormal, GemmPayload::kSpecial,
                             GemmPayload::kCancelling}) {
    for (int layout = 0; layout < 3; ++layout) {
      for (const std::int64_t k : {1, 9, 144}) {
        for (std::int64_t t = 1; t <= 35; ++t) {
          for (const std::int64_t other : {1, 9, 35}) {
            cases.push_back({t, other, k, layout, payload});
            cases.push_back({other, t, k, layout, payload});
          }
        }
      }
      for (const std::int64_t rows : {1, 9, 35}) {
        for (const std::int64_t lanes : {1, 9, 35}) {
          cases.push_back({rows, lanes, 1568, layout, payload});
        }
      }
    }
  }
  for (const GemmCase& gc : cases) {
    expect_gemm_kernel_bit_exact<double, double>(
        &simd::Kernels::gemm_dot_f64, gc, rng);
    expect_gemm_kernel_bit_exact<float, float>(&simd::Kernels::gemm_axpy_f32,
                                               gc, rng);
  }
}

/// gemm_dot_norm_f64 against its oracle: gemm_dot_f64's chains over a float
/// panel without the rounding to float, and each row's own x * x chain,
/// both from +0.0 in ascending kk, and the same dots with x_sq null. k = 0
/// pins the empty sum: every output is +0.0.
void expect_dot_norm_kernel_bit_exact(const GemmCase& gc, Rng& rng) {
  GemmBuffers<float> buf = make_gemm_buffers<float>(gc, rng);
  const std::int64_t c_size = gc.rows * (gc.lanes + 2);
  const double sentinel = kSentinel;
  std::vector<double> want(static_cast<std::size_t>(c_size), sentinel);
  std::vector<double> want_sq(static_cast<std::size_t>(gc.rows + 1), sentinel);
  const simd::GemmArgs<float, double> g = buf.args(want, gc);
  for (std::int64_t r = 0; r < g.rows; ++r) {
    double sq = 0.0;
    for (std::int64_t kk = 0; kk < g.k; ++kk) {
      const double xv = g.x[r * g.x_rs + kk * g.x_ks];
      sq += xv * xv;
    }
    want_sq[static_cast<std::size_t>(r)] = sq;
    for (std::int64_t l = 0; l < g.lanes; ++l) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < g.k; ++kk) {
        acc += static_cast<double>(g.x[r * g.x_rs + kk * g.x_ks]) *
               g.p[kk * g.p_ks + l];
      }
      want[static_cast<std::size_t>(r * g.c_rs + l * g.c_ls)] = acc;
    }
  }
  std::vector<double> c = want, sq = want_sq;
  for (const auto tier : util::available_simd_tiers()) {
    std::fill(c.begin(), c.end(), sentinel);
    std::fill(sq.begin(), sq.end(), sentinel);
    simd::kernels_for(tier).gemm_dot_norm_f64(buf.args(c, gc), sq.data());
    for (const auto* pair : {&c, &sq}) {
      const std::vector<double>& got = *pair;
      const std::vector<double>& expect = pair == &c ? want : want_sq;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const bool both_nan = std::isnan(got[i]) && std::isnan(expect[i]);
        ASSERT_TRUE(both_nan || std::bit_cast<std::uint64_t>(got[i]) ==
                                    std::bit_cast<std::uint64_t>(expect[i]))
            << util::simd_tier_name(tier) << (pair == &c ? " dot" : " x_sq")
            << " rows=" << gc.rows << " lanes=" << gc.lanes << " k=" << gc.k
            << " layout=" << gc.layout
            << " payload=" << static_cast<int>(gc.payload) << " at " << i
            << ": " << std::hexfloat << got[i] << " vs oracle " << expect[i];
      }
    }
    // Without x_sq the dots are the same.
    std::fill(c.begin(), c.end(), sentinel);
    simd::kernels_for(tier).gemm_dot_norm_f64(buf.args(c, gc), nullptr);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const bool both_nan = std::isnan(c[i]) && std::isnan(want[i]);
      ASSERT_TRUE(both_nan || std::bit_cast<std::uint64_t>(c[i]) ==
                                  std::bit_cast<std::uint64_t>(want[i]))
          << util::simd_tier_name(tier) << " dot without x_sq at " << i;
    }
  }
}

TEST(SimdKernels, GemmDotNormBitExactAcrossTiers) {
  Rng rng(56);
  for (const auto payload : {GemmPayload::kNormal, GemmPayload::kSpecial,
                             GemmPayload::kCancelling}) {
    for (int layout = 0; layout < 3; ++layout) {
      for (const std::int64_t k : {0, 1, 9, 144}) {
        for (std::int64_t rows = 1; rows <= 17; ++rows) {
          for (const std::int64_t lanes : {1, 4, 5, 8, 9, 10, 16, 17, 26, 33}) {
            expect_dot_norm_kernel_bit_exact(
                {rows, lanes, k, layout, payload}, rng);
          }
        }
      }
    }
  }
}

TEST(SimdKernels, PackedPipelineIdenticalUnderEveryTier) {
  // End-to-end: the packed classify pipeline produces identical bits and
  // predictions whichever tier is active.
  Rng rng(53);
  const Tensor protos = sign(Tensor::randn(Shape{5, 500}, rng));
  const Tensor queries = sign(Tensor::randn(Shape{11, 500}, rng));
  const util::SimdTier before = util::active_simd();
  std::vector<std::int64_t> first;
  std::vector<std::uint64_t> first_words;
  bool have_first = false;
  for (const auto tier : util::available_simd_tiers()) {
    util::set_simd_tier(tier);
    const PackedModel pp = pack_rows(protos);
    const auto preds = classify_packed(pp, pack_rows(queries));
    if (!have_first) {
      first = preds;
      first_words = pp.words;
      have_first = true;
    } else {
      EXPECT_EQ(preds, first) << util::simd_tier_name(tier);
      EXPECT_EQ(pp.words, first_words) << util::simd_tier_name(tier);
    }
  }
  util::set_simd_tier(before);
}

}  // namespace
}  // namespace fhdnn
