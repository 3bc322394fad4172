#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

namespace fhdnn::simd {

namespace {

// ---- scalar tier: the golden oracle ------------------------------------
// Deliberately plain loops: this is the reference semantics every wider
// tier must reproduce bit-for-bit, and the fallback on CPUs (or build
// configurations) without vector units.

void axpy_scalar(float* y, float a, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scale_scalar(float* out, const float* x, float a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] * a;
}

void add_scalar(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

// The select kernels clear an element's bits through an all-ones mask
// instead of branching: x < 0 (false for NaN) zeroes a relu output, and
// x <= 0 (false for NaN) zeroes a relu gradient.
void relu_scalar(float* out, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t neg = 0U - static_cast<std::uint32_t>(x[i] < 0.0F);
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x[i]) & ~neg);
  }
}

void relu_backward_scalar(float* out, const float* g, const float* x,
                          std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t pass =
        0U - static_cast<std::uint32_t>(!(x[i] <= 0.0F));
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) & pass);
  }
}

/// The max-pool order: a beats b when it is greater, or a NaN over a
/// number. Two NaNs, or -0.0f and +0.0f, tie.
bool pool_beats(float a, float b) {
  return a > b || (std::isnan(a) && !std::isnan(b));
}

// Each window in plain row-major order: the first candidate that beats
// the best so far takes its place, so a tie keeps the earlier element.
void maxpool2_scalar(const float* x, std::int64_t rows, std::int64_t w,
                     std::int64_t base, float* out, std::int64_t* argmax) {
  const std::int64_t ow = w / 2;
  for (std::int64_t i = 0; i < rows / 2; ++i) {
    const float* top = x + 2 * i * w;
    for (std::int64_t j = 0; j < ow; ++j) {
      std::int64_t best = 2 * j;
      for (const std::int64_t at : {2 * j + 1, w + 2 * j, w + 2 * j + 1}) {
        if (pool_beats(top[at], top[best])) best = at;
      }
      out[i * ow + j] = top[best];
      argmax[i * ow + j] = base + 2 * i * w + best;
    }
  }
}

void add_bias_scalar(float* y, float b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = y[i] + b;
}

void fold_taps_scalar(float* x, const float* taps, std::int64_t h,
                      std::int64_t w, std::int64_t oh, std::int64_t ow,
                      std::int64_t k, std::int64_t pad) {
  std::fill(x, x + h * w, 0.0F);
  for (std::int64_t ky = k - 1; ky >= 0; --ky) {
    for (std::int64_t kx = k - 1; kx >= 0; --kx) {
      const float* tap = taps + (ky * k + kx) * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t iy = oy + ky - pad;
        if (iy < 0 || iy >= h) continue;
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t ix = ox + kx - pad;
          if (ix >= 0 && ix < w) x[iy * w + ix] += tap[oy * ow + ox];
        }
      }
    }
  }
}

void col_sums_scalar(float* y, const float* x, std::int64_t rows,
                     std::int64_t cols) {
  for (std::int64_t j = 0; j < cols; ++j) {
    float s = 0.0F;
    for (std::int64_t r = 0; r < rows; ++r) s += x[r * cols + j];
    y[j] = y[j] + s;
  }
}

void transpose_scalar(float* out, const float* x, std::int64_t rows,
                      std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < cols; ++j) out[j * rows + r] = x[r * cols + j];
  }
}

void sgd_step_scalar(float* w, float* v, const float* g, std::int64_t n,
                     float lr, float momentum, float weight_decay) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float gi = g[i] + weight_decay * w[i];
    v[i] = momentum * v[i] + gi;
    w[i] = w[i] - lr * v[i];
  }
}

// GEMM and HD dot oracles. Lanes go eight at a time so eight independent
// chains are in flight; each output is still its own chain in ascending
// kk, which is all the contract fixes.
constexpr std::int64_t kScalarLanes = 8;

/// The chains of lanes [0, N) of a k-major panel p against one streamed
/// row x, from +0 in ascending kk: dot[l] = sum of x * p[l] in Acc, plus
/// the row's x * x chain in double into *xsq (RowSq). N is a compile-time
/// constant, so the chains stay in registers.
template <typename Acc, int N, bool RowSq, typename Panel>
void lane_chains(const float* x, std::int64_t x_ks, const Panel* p,
                 std::int64_t p_ks, std::int64_t k, Acc* dot, double* xsq) {
  Acc acc[N] = {};
  [[maybe_unused]] double xn = 0.0;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float xf = x[kk * x_ks];
    const Acc xv = xf;
    const Panel* pk = p + kk * p_ks;
#pragma GCC unroll 8
    for (int l = 0; l < N; ++l) acc[l] += xv * pk[l];
    if constexpr (RowSq) xn += static_cast<double>(xf) * xf;
  }
#pragma GCC unroll 8
  for (int l = 0; l < N; ++l) dot[l] = acc[l];
  if constexpr (RowSq) *xsq = xn;
}

/// lane_chains for nl <= N lanes: the widest instantiation not above nl.
template <typename Acc, bool RowSq, int N = kScalarLanes, typename Panel>
void lane_chains_upto(std::int64_t nl, const float* x, std::int64_t x_ks,
                      const Panel* p, std::int64_t p_ks, std::int64_t k,
                      Acc* dot, double* xsq) {
  if constexpr (N > 1) {
    if (nl < N) {
      lane_chains_upto<Acc, RowSq, N - 1>(nl, x, x_ks, p, p_ks, k, dot, xsq);
      return;
    }
  }
  lane_chains<Acc, N, RowSq>(x, x_ks, p, p_ks, k, dot, xsq);
}

/// x_sq non-null adds each row's x * x chain, run with the first lanes.
template <typename Acc, typename Panel, typename Out>
void gemm_scalar(const GemmArgs<Panel, Out>& g, double* x_sq = nullptr) {
  for (std::int64_t r = 0; r < g.rows; ++r) {
    const float* xr = g.x + r * g.x_rs;
    for (std::int64_t l0 = 0; l0 < g.lanes; l0 += kScalarLanes) {
      const std::int64_t nl = std::min(kScalarLanes, g.lanes - l0);
      Acc acc[kScalarLanes];
      const Panel* p = g.p + l0;
      if (x_sq != nullptr && l0 == 0) {
        lane_chains_upto<Acc, true>(nl, xr, g.x_ks, p, g.p_ks, g.k, acc,
                                    x_sq + r);
      } else {
        lane_chains_upto<Acc, false>(nl, xr, g.x_ks, p, g.p_ks, g.k, acc,
                                     nullptr);
      }
      for (std::int64_t l = 0; l < nl; ++l) {
        Out& c = g.c[r * g.c_rs + (l0 + l) * g.c_ls];
        c = g.add ? c + static_cast<Out>(acc[l]) : static_cast<Out>(acc[l]);
      }
    }
  }
}

void gemm_dot_f64_scalar(const GemmArgs<double>& g) {
  gemm_scalar<double>(g);
}

void gemm_axpy_f32_scalar(const GemmArgs<float>& g) { gemm_scalar<float>(g); }

void gemm_dot_norm_f64_scalar(const GemmArgs<float, double>& g,
                              double* x_sq) {
  gemm_scalar<double>(g, x_sq);
}

bool finite_max_abs_f32_scalar(const float* x, std::int64_t n,
                               float* max_abs) {
  float m = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
    m = std::max(m, std::abs(x[i]));
  }
  *max_abs = m;
  return true;
}

void agc_round_f32_scalar(const float* x, std::int32_t* q, std::int64_t n,
                          double gain, std::int32_t max_level) {
  for (std::int64_t i = 0; i < n; ++i) {
    const long long s = std::llround(static_cast<double>(x[i]) * gain);
    q[i] = static_cast<std::int32_t>(
        std::clamp<long long>(s, -max_level, max_level));
  }
}

void agc_scale_down_i32_scalar(const std::int32_t* q, float* out,
                               std::int64_t n, double gain) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(static_cast<double>(q[i]) / gain);
  }
}

void pack_signs_scalar(const float* src, std::uint64_t* dst,
                       std::int64_t nbits) {
  const std::int64_t nwords = (nbits + 63) / 64;
  for (std::int64_t w = 0; w < nwords; ++w) dst[w] = 0;
  for (std::int64_t i = 0; i < nbits; ++i) {
    if (src[i] >= 0.0F) {
      dst[i / 64] |= (1ULL << (i % 64));
    }
  }
}

void unpack_signs_scalar(const std::uint64_t* src, float* dst,
                         std::int64_t nbits) {
  for (std::int64_t i = 0; i < nbits; ++i) {
    dst[i] = (src[i / 64] >> (i % 64)) & 1ULL ? 1.0F : -1.0F;
  }
}

std::uint64_t hamming_words_scalar(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::int64_t nwords) {
  std::uint64_t total = 0;
  for (std::int64_t w = 0; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

// CRC-32 slicing-by-8 (Kounavis & Berry, ISCC 2005). kCrcTables[0] is the
// classic byte table; kCrcTables[k][b] is the register contribution of byte
// b followed by k zero bytes, so one step retires eight bytes with eight
// independent lookups instead of a serial chain of eight.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8U) ^ t[0][prev & 0xFFU];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian 32-bit load, independent of the host byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8U |
         static_cast<std::uint32_t>(p[2]) << 16U |
         static_cast<std::uint32_t>(p[3]) << 24U;
}

std::uint32_t crc32_update_scalar(std::uint32_t crc, const std::uint8_t* data,
                                  std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; n -= 8, data += 8) {
    const std::uint32_t lo = load_le32(data) ^ crc;
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^
          t[5][(lo >> 16U) & 0xFFU] ^ t[4][lo >> 24U] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8U) & 0xFFU] ^ t[1][(hi >> 16U) & 0xFFU] ^
          t[0][hi >> 24U];
  }
  for (; n > 0; --n, ++data) crc = t[0][(crc ^ *data) & 0xFFU] ^ (crc >> 8U);
  return crc;
}

// The exact-sum oracle. Every operation is integer arithmetic in uint64, so
// the adds wrap instead of overflowing, and the sign is applied as
// (v ^ neg) - neg with neg all ones or zero: no data-dependent branch.
void exact_accumulate_f32_scalar(std::int64_t* chunks, const float* x,
                                 std::int64_t n) {
  for (std::int64_t e = 0; e < n; ++e) {
    const auto bits = std::bit_cast<std::uint32_t>(x[e]);
    const std::uint32_t exp = (bits >> 23U) & 0xFFU;
    const std::uint32_t normal = exp != 0 ? 1U : 0U;
    // A normal's implicit bit sits at quantum 2^(exp-1); a subnormal's
    // mantissa counts quanta directly.
    const std::uint64_t m = (bits & 0x7FFFFFU) | (normal << 23U);
    const std::uint32_t shift = exp - normal;
    const std::uint64_t v = m << (shift % 32U);
    const std::uint64_t neg = 0 - static_cast<std::uint64_t>(bits >> 31U);
    std::int64_t* c = chunks + e * kExactChunks + shift / 32U;
    c[0] = static_cast<std::int64_t>(static_cast<std::uint64_t>(c[0]) +
                                     (((v & 0xFFFFFFFFU) ^ neg) - neg));
    c[1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(c[1]) +
                                     (((v >> 32U) ^ neg) - neg));
  }
}

constexpr Kernels kScalar = {
    .axpy_f32 = axpy_scalar,
    .scale_f32 = scale_scalar,
    .add_f32 = add_scalar,
    .gemm_dot_f64 = gemm_dot_f64_scalar,
    .gemm_axpy_f32 = gemm_axpy_f32_scalar,
    .gemm_dot_norm_f64 = gemm_dot_norm_f64_scalar,
    .finite_max_abs_f32 = finite_max_abs_f32_scalar,
    .agc_round_f32 = agc_round_f32_scalar,
    .agc_scale_down_i32 = agc_scale_down_i32_scalar,
    .pack_signs = pack_signs_scalar,
    .unpack_signs = unpack_signs_scalar,
    .hamming_words = hamming_words_scalar,
    .crc32_update = crc32_update_scalar,
    .exact_accumulate_f32 = exact_accumulate_f32_scalar,
    .relu_f32 = relu_scalar,
    .relu_backward_f32 = relu_backward_scalar,
    .maxpool2_f32 = maxpool2_scalar,
    .add_bias_f32 = add_bias_scalar,
    .fold_taps_f32 = fold_taps_scalar,
    .col_sums_f32 = col_sums_scalar,
    .transpose_f32 = transpose_scalar,
    .sgd_step_f32 = sgd_step_scalar,
};

/// Overlay `tier` onto `base`: non-null tier entries win.
Kernels overlay(const Kernels& base, const Kernels* tier) {
  if (tier == nullptr) return base;
  Kernels out = base;
  const auto take = [&](auto Kernels::*entry) {
    if (tier->*entry != nullptr) out.*entry = tier->*entry;
  };
  take(&Kernels::axpy_f32);
  take(&Kernels::scale_f32);
  take(&Kernels::add_f32);
  take(&Kernels::gemm_dot_f64);
  take(&Kernels::gemm_axpy_f32);
  take(&Kernels::gemm_dot_norm_f64);
  take(&Kernels::finite_max_abs_f32);
  take(&Kernels::agc_round_f32);
  take(&Kernels::agc_scale_down_i32);
  take(&Kernels::pack_signs);
  take(&Kernels::unpack_signs);
  take(&Kernels::hamming_words);
  take(&Kernels::crc32_update);
  take(&Kernels::exact_accumulate_f32);
  take(&Kernels::relu_f32);
  take(&Kernels::relu_backward_f32);
  take(&Kernels::maxpool2_f32);
  take(&Kernels::add_bias_f32);
  take(&Kernels::fold_taps_f32);
  take(&Kernels::col_sums_f32);
  take(&Kernels::transpose_f32);
  take(&Kernels::sgd_step_f32);
  return out;
}

/// Fully-resolved table per tier. Higher tiers inherit everything a lower
/// tier accelerates that they do not override (e.g. AVX-512 reuses the AVX2
/// bit and CRC kernels; util::detected_simd() grants Avx512 only to CPUs
/// that also pass the Avx2 probe).
std::array<Kernels, 4> build_tables() {
  std::array<Kernels, 4> t{};
  t[static_cast<std::size_t>(util::SimdTier::Scalar)] = kScalar;
  t[static_cast<std::size_t>(util::SimdTier::Neon)] =
      overlay(kScalar, detail::neon_table());
  const Kernels avx2 = overlay(kScalar, detail::avx2_table());
  t[static_cast<std::size_t>(util::SimdTier::Avx2)] = avx2;
  t[static_cast<std::size_t>(util::SimdTier::Avx512)] =
      overlay(avx2, detail::avx512_table());
  return t;
}

const std::array<Kernels, 4>& tables() {
  static const std::array<Kernels, 4> t = build_tables();
  return t;
}

}  // namespace

const Kernels& detail::scalar_table() { return kScalar; }

const Kernels& kernels() { return kernels_for(util::active_simd()); }

const Kernels& kernels_for(util::SimdTier tier) {
  // Tier values normally come from util::active_simd()/set_simd_tier(),
  // which clamp to detected support. An explicit request for a tier whose
  // TU was compiled without the ISA still resolves to a valid (scalar-
  // backed) table; executing a wider table than the CPU supports is the
  // caller's bug — always force tiers through util::set_simd_tier().
  return tables()[static_cast<std::size_t>(tier)];
}

}  // namespace fhdnn::simd
