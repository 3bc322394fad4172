// AVX2 kernel tier. Compiled with -mavx2 -mpopcnt -mpclmul -mno-fma
// -ffp-contract=off (see src/util/CMakeLists.txt): the float kernels must
// emit separate multiply and add instructions so every output element sees
// the exact IEEE-754 operation sequence of the scalar oracle — FMA
// contraction would change results in the last ulp and break the golden
// histories. The bit kernels (sign-pack via compare+movemask, Muła
// nibble-LUT popcount) and the PCLMULQDQ CRC-32 fold are integer-exact by
// construction. util::detected_simd() grants this tier only to CPUs with
// AVX2, POPCNT and PCLMULQDQ, the three extensions the flags enable. The
// exact-sum accumulate stays scalar here: it adds into chunks picked per
// element, and AVX2 has gathers but no scatter.
//
// The entire file is guarded by __AVX2__: on non-x86 targets (or when the
// build system did not pass the flags) the table resolver returns null and
// the dispatcher keeps the scalar tier.
#include "util/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <limits>

#include "util/simd_gemm.hpp"

namespace fhdnn::simd::detail {

namespace {

void axpy_avx2(float* y, float a, const float* x, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_avx2(float* out, const float* x, float a, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * a;
}

void add_avx2(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void relu_avx2(float* out, const float* x, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // _CMP_LT_OQ is false for NaN, so NaN and -0.0f keep their bits.
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(out + i,
                     _mm256_andnot_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ), v));
  }
  scalar_table().relu_f32(out + i, x + i, n - i);
}

void relu_backward_avx2(float* out, const float* g, const float* x,
                        std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // _CMP_NLE_UQ is !(x <= 0): true for NaN, which passes g.
    const __m256 pass =
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_NLE_UQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(pass, _mm256_loadu_ps(g + i)));
  }
  scalar_table().relu_backward_f32(out + i, g + i, x + i, n - i);
}

/// The first n lanes (n >= 8 selects all eight; n <= 0 none), as a
/// maskload / maskstore mask.
__m256i lanes_below(std::int64_t n) {
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(std::min<std::int64_t>(n, 8))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// a beats b in the max-pool order: greater, or a NaN over a number.
/// _CMP_NLE_UQ is a > b or either NaN; the ordered test of b drops the
/// lanes where b is a NaN.
__m256 pool_beats(__m256 a, __m256 b) {
  return _mm256_and_ps(_mm256_cmp_ps(a, b, _CMP_NLE_UQ),
                       _mm256_cmp_ps(b, b, _CMP_ORD_Q));
}

/// Even and odd elements of the 16 floats lo:hi, in order.
void deinterleave(__m256 lo, __m256 hi, __m256& even, __m256& odd) {
  constexpr int kOrder = _MM_SHUFFLE(3, 1, 2, 0);
  even = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0))),
      kOrder));
  odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1))),
      kOrder));
}

/// The 32-bit lane masks of m widened to two 64-bit lane masks.
void widen_mask(__m256 m, __m256i& lo, __m256i& hi) {
  const __m256i v = _mm256_castps_si256(m);
  lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
  hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
}

// Eight windows per step: a, b over c, d are the window's row-major
// elements. Each column keeps its top element unless the bottom one beats
// it; the right column's winner then takes the window when it beats the
// left one, or ties it and sits at the smaller window index (right top,
// index 1, against left bottom, index 2). A partial last step loads and
// stores through lane masks.
void maxpool2_avx2(const float* x, std::int64_t rows, std::int64_t w,
                   std::int64_t base, float* out, std::int64_t* argmax) {
  const std::int64_t ow = w / 2;
  const __m256i col = _mm256_setr_epi64x(0, 2, 4, 6);
  const __m256i vw = _mm256_set1_epi64x(w);
  for (std::int64_t i = 0; i < rows / 2; ++i) {
    const float* top = x + 2 * i * w;
    const float* bot = top + w;
    float* o = out + i * ow;
    std::int64_t* am = argmax + i * ow;
    for (std::int64_t j = 0; j < ow; j += 8) {
      const std::int64_t left = ow - j;
      __m256 t0, t1, b0, b1;
      if (left >= 8) {
        t0 = _mm256_loadu_ps(top + 2 * j);
        t1 = _mm256_loadu_ps(top + 2 * j + 8);
        b0 = _mm256_loadu_ps(bot + 2 * j);
        b1 = _mm256_loadu_ps(bot + 2 * j + 8);
      } else {
        const __m256i m0 = lanes_below(2 * left);
        const __m256i m1 = lanes_below(2 * left - 8);
        t0 = _mm256_maskload_ps(top + 2 * j, m0);
        t1 = _mm256_maskload_ps(top + 2 * j + 8, m1);
        b0 = _mm256_maskload_ps(bot + 2 * j, m0);
        b1 = _mm256_maskload_ps(bot + 2 * j + 8, m1);
      }
      __m256 a, b, c, d;
      deinterleave(t0, t1, a, b);
      deinterleave(b0, b1, c, d);
      const __m256 cw = pool_beats(c, a);
      const __m256 dw = pool_beats(d, b);
      const __m256 lft = _mm256_blendv_ps(a, c, cw);
      const __m256 rgt = _mm256_blendv_ps(b, d, dw);
      const __m256 rw = _mm256_or_ps(
          pool_beats(rgt, lft),
          _mm256_andnot_ps(pool_beats(lft, rgt), _mm256_andnot_ps(dw, cw)));
      const __m256 best = _mm256_blendv_ps(lft, rgt, rw);
      const __m256 low = _mm256_blendv_ps(cw, dw, rw);
      __m256i rw_lo, rw_hi, low_lo, low_hi;
      widen_mask(rw, rw_lo, rw_hi);
      widen_mask(low, low_lo, low_hi);
      // The window's flat index, plus 1 for a right winner (rw is -1 in
      // its lanes) and w for a bottom one.
      const __m256i at = _mm256_add_epi64(
          _mm256_set1_epi64x(base + 2 * i * w + 2 * j), col);
      const __m256i idx_lo = _mm256_add_epi64(
          _mm256_sub_epi64(at, rw_lo), _mm256_and_si256(low_lo, vw));
      const __m256i idx_hi = _mm256_add_epi64(
          _mm256_sub_epi64(_mm256_add_epi64(at, _mm256_set1_epi64x(8)), rw_hi),
          _mm256_and_si256(low_hi, vw));
      auto* am_lo = reinterpret_cast<long long*>(am + j);
      auto* am_hi = reinterpret_cast<long long*>(am + j + 4);
      if (left >= 8) {
        _mm256_storeu_ps(o + j, best);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(am_lo), idx_lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(am_hi), idx_hi);
      } else {
        const __m256i m = lanes_below(left);
        _mm256_maskstore_ps(o + j, m, best);
        __m256i m_lo, m_hi;
        widen_mask(_mm256_castsi256_ps(m), m_lo, m_hi);
        _mm256_maskstore_epi64(am_lo, m_lo, idx_lo);
        _mm256_maskstore_epi64(am_hi, m_hi, idx_hi);
      }
    }
  }
}

void add_bias_avx2(float* y, float b, std::int64_t n) {
  const __m256 vb = _mm256_set1_ps(b);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), vb));
  }
  if (i < n) {
    const __m256i m = lanes_below(n - i);
    _mm256_maskstore_ps(y + i, m,
                        _mm256_add_ps(_mm256_maskload_ps(y + i, m), vb));
  }
}

// Eight columns of one input row per register, as in the AVX-512 kernel;
// the lanes a tap does not cover keep their chains through a blend.
void fold_taps_avx2(float* x, const float* taps, std::int64_t h,
                    std::int64_t w, std::int64_t oh, std::int64_t ow,
                    std::int64_t k, std::int64_t pad) {
  const std::int64_t plane = oh * ow;
  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ix0 = 0; ix0 < w; ix0 += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::int64_t ky = k - 1; ky >= 0; --ky) {
        const std::int64_t oy = iy + pad - ky;
        if (oy < 0 || oy >= oh) continue;
        for (std::int64_t kx = k - 1; kx >= 0; --kx) {
          // Lane l reads ox = ox0 + l, which must lie in [0, ow), for an
          // ix0 + l inside the row.
          const std::int64_t ox0 = ix0 + pad - kx;
          const __m256i m =
              _mm256_andnot_si256(lanes_below(-ox0),
                                  lanes_below(std::min(ow - ox0, w - ix0)));
          const float* src = taps + (ky * k + kx) * plane + oy * ow + ox0;
          acc = _mm256_blendv_ps(
              acc, _mm256_add_ps(acc, _mm256_maskload_ps(src, m)),
              _mm256_castsi256_ps(m));
        }
      }
      const std::int64_t n = std::min<std::int64_t>(8, w - ix0);
      if (n == 8) {
        _mm256_storeu_ps(x + iy * w + ix0, acc);
      } else {
        _mm256_maskstore_ps(x + iy * w + ix0, lanes_below(n), acc);
      }
    }
  }
}

// Eight columns per register, the rows streamed past them; a partial last
// block loads through a mask, whose zeroed lanes are never stored.
void col_sums_avx2(float* y, const float* x, std::int64_t rows,
                   std::int64_t cols) {
  for (std::int64_t j = 0; j < cols; j += 8) {
    const __m256i m = lanes_below(cols - j);
    __m256 acc = _mm256_setzero_ps();
    for (std::int64_t r = 0; r < rows; ++r) {
      acc = _mm256_add_ps(acc, _mm256_maskload_ps(x + r * cols + j, m));
    }
    _mm256_maskstore_ps(y + j, m,
                        _mm256_add_ps(_mm256_maskload_ps(y + j, m), acc));
  }
}

// 8 x 8 blocks transposed in registers (unpack, shuffle, then swap the
// 128-bit halves); the columns and rows past the last whole block are
// copied one element at a time.
void transpose_avx2(float* out, const float* x, std::int64_t rows,
                    std::int64_t cols) {
  const auto copy = [&](std::int64_t r0, std::int64_t r1, std::int64_t c0) {
    for (std::int64_t r = r0; r < r1; ++r) {
      for (std::int64_t c = c0; c < cols; ++c) {
        out[c * rows + r] = x[r * cols + c];
      }
    }
  };
  const std::int64_t rb = rows - rows % 8, cb = cols - cols % 8;
  for (std::int64_t i = 0; i < rb; i += 8) {
    for (std::int64_t j = 0; j < cb; j += 8) {
      __m256 r[8], t[8];
#pragma GCC unroll 8
      for (int k = 0; k < 8; ++k) {
        r[k] = _mm256_loadu_ps(x + (i + k) * cols + j);
      }
#pragma GCC unroll 4
      for (int k = 0; k < 4; ++k) {
        t[2 * k] = _mm256_unpacklo_ps(r[2 * k], r[2 * k + 1]);
        t[2 * k + 1] = _mm256_unpackhi_ps(r[2 * k], r[2 * k + 1]);
      }
      constexpr int kLo = _MM_SHUFFLE(1, 0, 1, 0);
      constexpr int kHi = _MM_SHUFFLE(3, 2, 3, 2);
#pragma GCC unroll 2
      for (int q = 0; q < 8; q += 4) {
        r[q] = _mm256_shuffle_ps(t[q], t[q + 2], kLo);
        r[q + 1] = _mm256_shuffle_ps(t[q], t[q + 2], kHi);
        r[q + 2] = _mm256_shuffle_ps(t[q + 1], t[q + 3], kLo);
        r[q + 3] = _mm256_shuffle_ps(t[q + 1], t[q + 3], kHi);
      }
#pragma GCC unroll 4
      for (int k = 0; k < 4; ++k) {
        _mm256_storeu_ps(out + (j + k) * rows + i,
                         _mm256_permute2f128_ps(r[k], r[k + 4], 0x20));
        _mm256_storeu_ps(out + (j + k + 4) * rows + i,
                         _mm256_permute2f128_ps(r[k], r[k + 4], 0x31));
      }
    }
    copy(i, i + 8, cb);
  }
  copy(rb, rows, 0);
}

void sgd_step_avx2(float* w, float* v, const float* g, std::int64_t n,
                   float lr, float momentum, float weight_decay) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vm = _mm256_set1_ps(momentum);
  const __m256 vwd = _mm256_set1_ps(weight_decay);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 wi = _mm256_loadu_ps(w + i);
    const __m256 gi =
        _mm256_add_ps(_mm256_loadu_ps(g + i), _mm256_mul_ps(vwd, wi));
    const __m256 vi =
        _mm256_add_ps(_mm256_mul_ps(vm, _mm256_loadu_ps(v + i)), gi);
    _mm256_storeu_ps(v + i, vi);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(wi, _mm256_mul_ps(vlr, vi)));
  }
  scalar_table().sgd_step_f32(w + i, v + i, g + i, n - i, lr, momentum,
                              weight_decay);
}

void pack_signs_avx2(const float* src, std::uint64_t* dst,
                     std::int64_t nbits) {
  // _CMP_GE_OQ matches the scalar `v >= 0.0f`: true for +0/-0, false for
  // NaN — so NaN packs as a 0 bit (-1 on unpack) in every tier.
  const __m256 zero = _mm256_setzero_ps();
  const std::int64_t full_words = nbits / 64;
  for (std::int64_t w = 0; w < full_words; ++w) {
    std::uint64_t word = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256 v = _mm256_loadu_ps(src + w * 64 + g * 8);
      const unsigned m = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_GE_OQ)));
      word |= static_cast<std::uint64_t>(m) << (g * 8);
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

void unpack_signs_avx2(const std::uint64_t* src, float* dst,
                       std::int64_t nbits) {
  const __m256i bit_select =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256 pos = _mm256_set1_ps(1.0F);
  const __m256 neg = _mm256_set1_ps(-1.0F);
  std::int64_t i = 0;
  for (; i + 8 <= nbits; i += 8) {
    const unsigned byte =
        static_cast<unsigned>((src[i / 64] >> (i % 64)) & 0xFFULL);
    const __m256i v = _mm256_set1_epi32(static_cast<int>(byte));
    const __m256i hit = _mm256_cmpeq_epi32(
        _mm256_and_si256(v, bit_select), bit_select);
    _mm256_storeu_ps(dst + i,
                     _mm256_blendv_ps(neg, pos, _mm256_castsi256_ps(hit)));
  }
  for (; i < nbits; ++i) {
    dst[i] = (src[i / 64] >> (i % 64)) & 1ULL ? 1.0F : -1.0F;
  }
}

/// Muła nibble-LUT popcount of one 256-bit lane, returned as 4 partial
/// 64-bit sums (one per 64-bit element).
__m256i popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

std::uint64_t horizontal_sum_epi64(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

std::uint64_t hamming_words_avx2(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t nwords) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= nwords; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(va, vb)));
  }
  std::uint64_t total = horizontal_sum_epi64(acc);
  for (; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

// GEMM traits for simd_gemm.hpp. 4 x 2 tiles: eight accumulators plus two
// panel registers and a broadcast stay within the 16 ymm registers.
struct DotF64 {
  using Panel = double;
  using Vec = __m256d;
  using Mask = __m256i;
  static constexpr int W = 4, kRows = 4, kVecs = 2;
  static Vec zero() { return _mm256_setzero_pd(); }
  static Mask mask(std::int64_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static Vec load(const double* p, Mask m) { return _mm256_maskload_pd(p, m); }
  static Vec bcast(float x) { return _mm256_set1_pd(static_cast<double>(x)); }
  static Vec step(Vec acc, Vec x, Vec p) {
    return _mm256_add_pd(acc, _mm256_mul_pd(x, p));
  }
  static void store(float* out, Vec v) {
    _mm_storeu_ps(out, _mm256_cvtpd_ps(v));
  }
  static void store(double* out, Vec v) { _mm256_storeu_pd(out, v); }
  static double first(Vec v) { return _mm256_cvtsd_f64(v); }
  // Four rows of four lanes, rounded to float and transposed in registers.
  static void store_cols4(float* out, std::int64_t ls, Vec a, Vec b, Vec c,
                          Vec d) {
    __m128 ra = _mm256_cvtpd_ps(a), rb = _mm256_cvtpd_ps(b);
    __m128 rc = _mm256_cvtpd_ps(c), rd = _mm256_cvtpd_ps(d);
    _MM_TRANSPOSE4_PS(ra, rb, rc, rd);
    _mm_storeu_ps(out, ra);
    _mm_storeu_ps(out + ls, rb);
    _mm_storeu_ps(out + 2 * ls, rc);
    _mm_storeu_ps(out + 3 * ls, rd);
  }
};

// The HD classifier's float panel, widened in the load: DotF64's chains
// over the same (exact) products.
struct DotF32 : DotF64 {
  using Panel = float;
  using Mask = __m128i;
  static Mask mask(std::int64_t n) {
    return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(n)),
                           _mm_setr_epi32(0, 1, 2, 3));
  }
  static Vec load(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
  static Vec load(const float* p, Mask m) {
    return _mm256_cvtps_pd(_mm_maskload_ps(p, m));
  }
};

struct AxpyF32 {
  using Panel = float;
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr int W = 8, kRows = 4, kVecs = 2;
  static Vec zero() { return _mm256_setzero_ps(); }
  static Mask mask(std::int64_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec load(const float* p) { return _mm256_loadu_ps(p); }
  static Vec load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static Vec bcast(float x) { return _mm256_set1_ps(x); }
  static Vec step(Vec acc, Vec x, Vec p) {
    return _mm256_add_ps(acc, _mm256_mul_ps(x, p));
  }
  static void store(float* out, Vec v) { _mm256_storeu_ps(out, v); }
  static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
};

void gemm_dot_f64_avx2(const GemmArgs<double>& g) { gemm<DotF64>(g); }

void gemm_axpy_f32_avx2(const GemmArgs<float>& g) { gemm<AxpyF32>(g); }

void gemm_dot_norm_f64_avx2(const GemmArgs<float, double>& g, double* x_sq) {
  x_sq != nullptr ? gemm<DotF32, true>(g, x_sq) : gemm<DotF32>(g);
}

// The AGC quantizer kernels run whole registers and leave the last partial
// register's elements to the scalar oracle, which computes the same value.

bool finite_max_abs_f32_avx2(const float* x, std::int64_t n, float* max_abs) {
  const __m256 magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 m = _mm256_setzero_ps();
  __m256 bad = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_and_ps(_mm256_loadu_ps(x + i), magnitude);
    // !(|v| < Inf) holds exactly for Inf and NaN.
    bad = _mm256_or_ps(bad, _mm256_cmp_ps(v, inf, _CMP_NLT_UQ));
    m = _mm256_max_ps(m, v);
  }
  float tail = 0.0F;
  if (_mm256_movemask_ps(bad) != 0 ||
      !scalar_table().finite_max_abs_f32(x + i, n - i, &tail)) {
    return false;
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m);
  *max_abs = std::max(*std::max_element(lanes, lanes + 8), tail);
  return true;
}

void agc_round_f32_avx2(const float* x, std::int32_t* q, std::int64_t n,
                        double gain, std::int32_t max_level) {
  const __m256d g = _mm256_set1_pd(gain);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d top = _mm256_set1_pd(static_cast<double>(max_level));
  const __m256d bottom = _mm256_set1_pd(-static_cast<double>(max_level));
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(x + i)), g);
    const __m256d t =
        _mm256_round_pd(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d away = _mm256_cmp_pd(
        _mm256_andnot_pd(sign, _mm256_sub_pd(s, t)), half, _CMP_GE_OQ);
    // +-1.0 with s's sign, in the lanes that step away from zero.
    const __m256d unit = _mm256_or_pd(one, _mm256_and_pd(s, sign));
    const __m256d r = _mm256_add_pd(t, _mm256_and_pd(away, unit));
    const __m256d c = _mm256_min_pd(_mm256_max_pd(r, bottom), top);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i), _mm256_cvttpd_epi32(c));
  }
  scalar_table().agc_round_f32(x + i, q + i, n - i, gain, max_level);
}

void agc_scale_down_i32_avx2(const std::int32_t* q, float* out, std::int64_t n,
                             double gain) {
  const __m256d g = _mm256_set1_pd(gain);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i)));
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_div_pd(v, g)));
  }
  scalar_table().agc_scale_down_i32(q + i, out + i, n - i, gain);
}

/// Carry-less multiply a's 64-bit halves by k's and fold the two products
/// into b: the "fold by 128 bits" step of Gopal et al.
__m128i crc_fold(__m128i a, __m128i k, __m128i b) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), b);
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC computation
/// for generic polynomials using PCLMULQDQ", Intel 2009), the scheme of
/// zlib/Chromium's crc32_sse42_simd_: fold four 128-bit lanes in parallel
/// 64 bytes at a time, fold the four into one, fold single 16-byte blocks,
/// then reduce 128 -> 64 -> 32 bits with a Barrett reduction. The constants
/// are x^n mod P(x) for the reflected polynomial, shifted left by one:
/// k1/k2 fold across 512 bits, k3/k4 across 128, k5 folds 64 -> 32, and
/// mu/P' drive the Barrett step. Inputs shorter than 64 bytes, and the
/// final tail shorter than 16 bytes, go to the scalar slicing-by-8 kernel.
std::uint32_t crc32_update_avx2(std::uint32_t crc, const std::uint8_t* data,
                                std::size_t n) {
  const auto scalar = scalar_table().crc32_update;
  if (n < 64) return scalar(crc, data, n);
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i poly = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(load(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  data += 64;
  n -= 64;
  for (; n >= 64; data += 64, n -= 64) {
    x1 = crc_fold(x1, k1k2, load(data));
    x2 = crc_fold(x2, k1k2, load(data + 16));
    x3 = crc_fold(x3, k1k2, load(data + 32));
    x4 = crc_fold(x4, k1k2, load(data + 48));
  }
  x1 = crc_fold(x1, k3k4, x2);
  x1 = crc_fold(x1, k3k4, x3);
  x1 = crc_fold(x1, k3k4, x4);
  for (; n >= 16; data += 16, n -= 16) x1 = crc_fold(x1, k3k4, load(data));

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  crc = static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
  return scalar(crc, data, n);
}

constexpr Kernels kAvx2 = {
    .axpy_f32 = axpy_avx2,
    .scale_f32 = scale_avx2,
    .add_f32 = add_avx2,
    .gemm_dot_f64 = gemm_dot_f64_avx2,
    .gemm_axpy_f32 = gemm_axpy_f32_avx2,
    .gemm_dot_norm_f64 = gemm_dot_norm_f64_avx2,
    .finite_max_abs_f32 = finite_max_abs_f32_avx2,
    .agc_round_f32 = agc_round_f32_avx2,
    .agc_scale_down_i32 = agc_scale_down_i32_avx2,
    .pack_signs = pack_signs_avx2,
    .unpack_signs = unpack_signs_avx2,
    .hamming_words = hamming_words_avx2,
    .crc32_update = crc32_update_avx2,
    .exact_accumulate_f32 = nullptr,  // scalar
    .relu_f32 = relu_avx2,
    .relu_backward_f32 = relu_backward_avx2,
    .maxpool2_f32 = maxpool2_avx2,
    .add_bias_f32 = add_bias_avx2,
    .fold_taps_f32 = fold_taps_avx2,
    .col_sums_f32 = col_sums_avx2,
    .transpose_f32 = transpose_avx2,
    .sgd_step_f32 = sgd_step_avx2,
};

}  // namespace

const Kernels* avx2_table() { return &kAvx2; }

}  // namespace fhdnn::simd::detail

#else  // !__AVX2__

namespace fhdnn::simd::detail {

const Kernels* avx2_table() { return nullptr; }

}  // namespace fhdnn::simd::detail

#endif
