// AVX-512 kernel tier: 16-lane float kernels. Compiled with
// -mavx512f -mavx512bw -mno-fma -ffp-contract=off (src/util/CMakeLists.txt)
// for the same bit-exactness contract as the AVX2 tier — separate multiply
// and add per element, no reassociated reductions.
//
// The bit kernels and the CRC-32 fold are deliberately absent from this
// table: the dispatcher overlays AVX-512 on top of the resolved AVX2 table
// (util::detected_simd() grants Avx512 only to CPUs that pass the Avx2
// probe too), and the Muła popcount there already saturates load
// bandwidth; the VPOPCNTDQ and VPCLMULQDQ extensions that would beat the
// AVX2 kernels are not part of the avx512f+bw baseline this TU targets.
//
// The exact-sum accumulate is here and not in the AVX2 tier because it
// needs the AVX-512F scatter: each lane is one element, so the eight
// gather/add/scatter lanes touch disjoint chunks and never conflict.
#include "util/simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "util/simd_gemm.hpp"

namespace fhdnn::simd::detail {

namespace {

void axpy_avx512(float* y, float a, const float* x, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vx = _mm512_loadu_ps(x + i);
    const __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_add_ps(vy, _mm512_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_avx512(float* out, const float* x, float a, std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_mul_ps(_mm512_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * a;
}

void add_avx512(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        out + i, _mm512_add_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void pack_signs_avx512(const float* src, std::uint64_t* dst,
                       std::int64_t nbits) {
  // One 16-bit compare mask per vector; four vectors fill a 64-bit word.
  // _CMP_GE_OQ matches scalar `>=`: NaN packs as 0, ±0 packs as 1.
  const __m512 zero = _mm512_setzero_ps();
  const std::int64_t full_words = nbits / 64;
  for (std::int64_t w = 0; w < full_words; ++w) {
    std::uint64_t word = 0;
    for (int g = 0; g < 4; ++g) {
      const __m512 v = _mm512_loadu_ps(src + w * 64 + g * 16);
      const std::uint64_t m = _mm512_cmp_ps_mask(v, zero, _CMP_GE_OQ);
      word |= m << (g * 16);
    }
    dst[w] = word;
  }
  const std::int64_t rem = nbits - full_words * 64;
  if (rem > 0) {
    std::uint64_t word = 0;
    for (std::int64_t i = 0; i < rem; ++i) {
      if (src[full_words * 64 + i] >= 0.0F) word |= (1ULL << i);
    }
    dst[full_words] = word;
  }
}

void unpack_signs_avx512(const std::uint64_t* src, float* dst,
                         std::int64_t nbits) {
  const __m512 pos = _mm512_set1_ps(1.0F);
  const __m512 neg = _mm512_set1_ps(-1.0F);
  std::int64_t i = 0;
  for (; i + 16 <= nbits; i += 16) {
    const __mmask16 m =
        static_cast<__mmask16>((src[i / 64] >> (i % 64)) & 0xFFFFULL);
    _mm512_storeu_ps(dst + i, _mm512_mask_blend_ps(m, neg, pos));
  }
  for (; i < nbits; ++i) {
    dst[i] = (src[i / 64] >> (i % 64)) & 1ULL ? 1.0F : -1.0F;
  }
}

// GEMM traits for simd_gemm.hpp. 4 x 4 tiles: 16 accumulators plus four
// panel registers and a broadcast fit in the 32 zmm registers.
struct DotF64 {
  using Panel = double;
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr int W = 8, kRows = 4, kVecs = 4;
  static Vec zero() { return _mm512_setzero_pd(); }
  static Mask mask(std::int64_t n) {
    return static_cast<Mask>((1U << n) - 1U);
  }
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static Vec load(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static Vec bcast(float x) { return _mm512_set1_pd(static_cast<double>(x)); }
  static Vec step(Vec acc, Vec x, Vec p) {
    return _mm512_add_pd(acc, _mm512_mul_pd(x, p));
  }
  // The all-lanes maskz form is the same conversion; GCC 12's plain
  // _mm512_cvtpd_ps trips -Wmaybe-uninitialized inside its own header.
  static void store(float* out, Vec v) {
    _mm256_storeu_ps(out, _mm512_maskz_cvtpd_ps(0xFF, v));
  }
  static void store(double* out, Vec v) { _mm512_storeu_pd(out, v); }
  static double first(Vec v) { return _mm512_cvtsd_f64(v); }
};

// The HD classifier's float panel, widened in the load: DotF64's chains
// over the same (exact) products.
struct DotF32 : DotF64 {
  using Panel = float;
  static Vec load(const float* p) {
    return _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(p));
  }
  // The lanes of m, through a 16-lane masked load and its low half (in
  // the all-lanes maskz extract, for the reason DotF64::store gives).
  static Vec load(const float* p, Mask m) {
    const __m512d v = _mm512_castps_pd(_mm512_maskz_loadu_ps(m, p));
    return _mm512_maskz_cvtps_pd(
        0xFF, _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, v, 0)));
  }
};

struct AxpyF32 {
  using Panel = float;
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr int W = 16, kRows = 4, kVecs = 4;
  static Vec zero() { return _mm512_setzero_ps(); }
  static Mask mask(std::int64_t n) {
    return static_cast<Mask>((1U << n) - 1U);
  }
  static Vec load(const float* p) { return _mm512_loadu_ps(p); }
  static Vec load(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static Vec bcast(float x) { return _mm512_set1_ps(x); }
  static Vec step(Vec acc, Vec x, Vec p) {
    return _mm512_add_ps(acc, _mm512_mul_ps(x, p));
  }
  static void store(float* out, Vec v) { _mm512_storeu_ps(out, v); }
};

void gemm_dot_f64_avx512(const GemmArgs<double>& g) { gemm<DotF64>(g); }

void gemm_dot_norm_f64_avx512(const GemmArgs<float, double>& g,
                              double* x_sq) {
  x_sq != nullptr ? gemm<DotF32, true>(g, x_sq) : gemm<DotF32>(g);
}

// The AGC quantizer kernels run whole registers and leave the last partial
// register's elements to the scalar oracle, which computes the same value.
// Conversions, min/max and rounding use their all-lanes maskz forms for the
// reason DotF64::store gives.

bool finite_max_abs_f32_avx512(const float* x, std::int64_t n,
                               float* max_abs) {
  const __m512 inf = _mm512_set1_ps(std::numeric_limits<float>::infinity());
  __m512 m = _mm512_setzero_ps();
  __mmask16 bad = 0;
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_abs_ps(_mm512_loadu_ps(x + i));
    // !(|v| < Inf) holds exactly for Inf and NaN.
    bad = static_cast<__mmask16>(bad |
                                 _mm512_cmp_ps_mask(v, inf, _CMP_NLT_UQ));
    m = _mm512_maskz_max_ps(0xFFFF, m, v);
  }
  float tail = 0.0F;
  if (bad != 0 || !scalar_table().finite_max_abs_f32(x + i, n - i, &tail)) {
    return false;
  }
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, m);
  *max_abs = std::max(*std::max_element(lanes, lanes + 16), tail);
  return true;
}

void agc_round_f32_avx512(const float* x, std::int32_t* q, std::int64_t n,
                          double gain, std::int32_t max_level) {
  const __m512d g = _mm512_set1_pd(gain);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512i one = _mm512_castpd_si512(_mm512_set1_pd(1.0));
  const __m512i sign = _mm512_castpd_si512(_mm512_set1_pd(-0.0));
  const __m512d top = _mm512_set1_pd(static_cast<double>(max_level));
  const __m512d bottom = _mm512_set1_pd(-static_cast<double>(max_level));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d s =
        _mm512_mul_pd(_mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(x + i)), g);
    const __m512d t = _mm512_maskz_roundscale_pd(
        0xFF, s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __mmask8 away = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(s, t)), half, _CMP_GE_OQ);
    // +-1.0 with s's sign: one step away from zero.
    const __m512d unit = _mm512_castsi512_pd(_mm512_or_si512(
        one, _mm512_and_si512(_mm512_castpd_si512(s), sign)));
    const __m512d r = _mm512_mask_add_pd(t, away, t, unit);
    const __m512d c = _mm512_maskz_min_pd(
        0xFF, _mm512_maskz_max_pd(0xFF, r, bottom), top);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                        _mm512_maskz_cvttpd_epi32(0xFF, c));
  }
  scalar_table().agc_round_f32(x + i, q + i, n - i, gain, max_level);
}

void agc_scale_down_i32_avx512(const std::int32_t* q, float* out,
                               std::int64_t n, double gain) {
  const __m512d g = _mm512_set1_pd(gain);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_maskz_cvtepi32_pd(
        0xFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i)));
    _mm256_storeu_ps(out + i, _mm512_maskz_cvtpd_ps(0xFF, _mm512_div_pd(v, g)));
  }
  scalar_table().agc_scale_down_i32(q + i, out + i, n - i, gain);
}

// Eight elements per step, one per 64-bit lane, each lane the scalar
// kernel's integer arithmetic; the tail runs the same step under a mask
// (masked-off lanes neither load, gather nor scatter). The shifts, the
// extract and the widening use their all-lanes maskz forms for the reason
// DotF64::store gives: GCC 12's unmasked forms trip -Wmaybe-uninitialized
// in its own header.
void exact_accumulate_f32_avx512(std::int64_t* chunks, const float* x,
                                 std::int64_t n) {
  constexpr std::int64_t c = kExactChunks;
  const __m512i lane_base =
      _mm512_set_epi64(7 * c, 6 * c, 5 * c, 4 * c, 3 * c, 2 * c, c, 0);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i exp_mask = _mm512_set1_epi64(0xFF);
  const __m512i man_mask = _mm512_set1_epi64(0x7FFFFF);
  const __m512i implicit = _mm512_set1_epi64(0x800000);
  const __m512i sign = _mm512_set1_epi64(0x80000000LL);
  const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFLL);
  const __m512i off_mask = _mm512_set1_epi64(31);
  const auto all = static_cast<__mmask8>(0xFF);
  for (std::int64_t e = 0; e < n; e += 8) {
    const std::int64_t left = n - e;
    const auto k = static_cast<__mmask8>(
        left >= 8 ? 0xFFU : (1U << static_cast<unsigned>(left)) - 1U);
    const __m512i words =
        _mm512_maskz_loadu_epi32(static_cast<__mmask16>(k), x + e);
    const __m512i bits = _mm512_maskz_cvtepu32_epi64(
        all, _mm512_maskz_extracti64x4_epi64(all, words, 0));
    const __m512i exp =
        _mm512_and_si512(_mm512_maskz_srli_epi64(all, bits, 23), exp_mask);
    const __mmask8 normal = _mm512_test_epi64_mask(exp, exp);
    const __m512i man = _mm512_and_si512(bits, man_mask);
    const __m512i m = _mm512_mask_or_epi64(man, normal, man, implicit);
    const __m512i shift = _mm512_mask_sub_epi64(exp, normal, exp, one);
    const __m512i v =
        _mm512_maskz_sllv_epi64(all, m, _mm512_and_si512(shift, off_mask));
    const __mmask8 neg = _mm512_test_epi64_mask(bits, sign);
    const __m512i lo = _mm512_and_si512(v, low32);
    const __m512i hi = _mm512_maskz_srli_epi64(all, v, 32);
    const __m512i add_lo = _mm512_mask_sub_epi64(lo, neg, zero, lo);
    const __m512i add_hi = _mm512_mask_sub_epi64(hi, neg, zero, hi);
    std::int64_t* base = chunks + e * c;
    const __m512i at =
        _mm512_add_epi64(lane_base, _mm512_maskz_srli_epi64(all, shift, 5));
    const __m512i at_hi = _mm512_add_epi64(at, one);
    const __m512i c_lo = _mm512_mask_i64gather_epi64(zero, k, at, base, 8);
    _mm512_mask_i64scatter_epi64(base, k, at, _mm512_add_epi64(c_lo, add_lo),
                                 8);
    const __m512i c_hi = _mm512_mask_i64gather_epi64(zero, k, at_hi, base, 8);
    _mm512_mask_i64scatter_epi64(base, k, at_hi,
                                 _mm512_add_epi64(c_hi, add_hi), 8);
  }
}

void gemm_axpy_f32_avx512(const GemmArgs<float>& g) { gemm<AxpyF32>(g); }

void relu_avx512(float* out, const float* x, std::int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // _CMP_LT_OQ is false for NaN, so NaN and -0.0f keep their bits.
    const __m512 v = _mm512_loadu_ps(x + i);
    const __mmask16 neg = _mm512_cmp_ps_mask(v, zero, _CMP_LT_OQ);
    _mm512_storeu_ps(out + i, _mm512_mask_mov_ps(v, neg, zero));
  }
  scalar_table().relu_f32(out + i, x + i, n - i);
}

void relu_backward_avx512(float* out, const float* g, const float* x,
                          std::int64_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // _CMP_NLE_UQ is !(x <= 0): true for NaN, which passes g.
    const __mmask16 pass =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(x + i), zero, _CMP_NLE_UQ);
    _mm512_storeu_ps(out + i,
                     _mm512_maskz_mov_ps(pass, _mm512_loadu_ps(g + i)));
  }
  scalar_table().relu_backward_f32(out + i, g + i, x + i, n - i);
}

constexpr Kernels kAvx512 = {
    .axpy_f32 = axpy_avx512,
    .scale_f32 = scale_avx512,
    .add_f32 = add_avx512,
    .gemm_dot_f64 = gemm_dot_f64_avx512,
    .gemm_axpy_f32 = gemm_axpy_f32_avx512,
    .gemm_dot_norm_f64 = gemm_dot_norm_f64_avx512,
    .finite_max_abs_f32 = finite_max_abs_f32_avx512,
    .agc_round_f32 = agc_round_f32_avx512,
    .agc_scale_down_i32 = agc_scale_down_i32_avx512,
    .pack_signs = pack_signs_avx512,
    .unpack_signs = unpack_signs_avx512,
    .hamming_words = nullptr,  // AVX2
    .crc32_update = nullptr,   // AVX2
    .exact_accumulate_f32 = exact_accumulate_f32_avx512,
    .relu_f32 = relu_avx512,
    .relu_backward_f32 = relu_backward_avx512,
};

}  // namespace

const Kernels* avx512_table() { return &kAvx512; }

}  // namespace fhdnn::simd::detail

#else  // !(__AVX512F__ && __AVX512BW__)

namespace fhdnn::simd::detail {

const Kernels* avx512_table() { return nullptr; }

}  // namespace fhdnn::simd::detail

#endif
