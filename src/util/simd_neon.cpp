// NEON kernel tier (aarch64, where Advanced SIMD is baseline — no extra
// target flags needed, but the TU still compiles with -ffp-contract=off so
// the separate vmul/vadd intrinsics below are never fused into fmla; fused
// multiply-add rounds once instead of twice and would break the
// bit-exactness contract against the scalar oracle).
//
// pack/unpack are left to the scalar tier (null entries): without a
// movemask instruction the NEON bit-extraction dance buys little over the
// scalar loop, and the popcount/XOR kernels below carry the hot packed-HD
// path via the native vcnt instruction.
#include "util/simd.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <bit>

namespace fhdnn::simd::detail {

namespace {

void axpy_neon(float* y, float a, const float* x, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t vy = vld1q_f32(y + i);
    vst1q_f32(y + i, vaddq_f32(vy, vmulq_f32(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_neon(float* out, const float* x, float a, std::int64_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * a;
}

void add_neon(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

/// Per-128-bit popcount via vcnt (bytewise) + pairwise widening adds.
inline std::uint64_t popcount128(uint8x16_t v) {
  return vaddvq_u64(
      vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
}

std::uint64_t hamming_words_neon(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t nwords) {
  std::uint64_t total = 0;
  std::int64_t w = 0;
  for (; w + 2 <= nwords; w += 2) {
    const uint64x2_t x = veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w));
    total += popcount128(vreinterpretq_u8_u64(x));
  }
  for (; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

// Null entries run the scalar tier.
constexpr Kernels kNeon = {
    .axpy_f32 = axpy_neon,
    .scale_f32 = scale_neon,
    .add_f32 = add_neon,
    .gemm_dot_f64 = nullptr,
    .gemm_axpy_f32 = nullptr,
    .gemm_dot_norm_f64 = nullptr,
    .finite_max_abs_f32 = nullptr,
    .agc_round_f32 = nullptr,
    .agc_scale_down_i32 = nullptr,
    .pack_signs = nullptr,
    .unpack_signs = nullptr,
    .hamming_words = hamming_words_neon,
    .crc32_update = nullptr,
    .exact_accumulate_f32 = nullptr,
    .relu_f32 = nullptr,
    .relu_backward_f32 = nullptr,
};

}  // namespace

const Kernels* neon_table() { return &kNeon; }

}  // namespace fhdnn::simd::detail

#else  // !aarch64

namespace fhdnn::simd::detail {

const Kernels* neon_table() { return nullptr; }

}  // namespace fhdnn::simd::detail

#endif
