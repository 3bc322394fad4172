// Runtime-dispatched SIMD kernels for the hot data representations
// (DESIGN.md §11): float rows (tensor elementwise / matmul inner loops),
// bit-packed hypervector words (pack, XOR-bind, popcount hamming), raw
// bytes (the CRC-32 behind every snapshot chunk and wire frame) and exact
// fixed-point sums (the accumulate behind hierarchical aggregation).
//
// Dispatch model: `kernels()` returns a table of function pointers resolved
// against util::active_simd(). Each tier's implementations live in their
// own translation unit compiled with the matching target flags
// (simd_avx2.cpp with -mavx2, simd_avx512.cpp with -mavx512f/-mavx512bw,
// NEON inline on aarch64); tiers provide *partial* tables and the
// dispatcher overlays them on the scalar baseline, so a tier only
// implements the kernels it accelerates.
//
// Bit-exactness contract (the reason golden histories survive dispatch):
//   * float kernels perform the identical IEEE-754 operation sequence per
//     element as the scalar tier — vector lanes map 1:1 onto independent
//     output elements, multiplies and adds are emitted as separate
//     instructions (the SIMD TUs compile with -ffp-contract=off and no
//     FMA), and there are no reassociated reductions;
//   * bit kernels are integer arithmetic, exact by construction.
// tests/test_packed.cpp pins every tier's output against the scalar tier
// bit-for-bit, including NaN/Inf/-0.0 payloads.
//
// The GEMM microkernels extend the same contract to whole matrix
// products: each output element owns one lane of a register tile and keeps
// its scalar chain (same operands, same order), so blocking only changes
// how many chains are in flight. The HD classifier's dot kernel (cosine
// readout and refinement) follows the same rule with one class per lane;
// the AGC quantizer's rounding reproduces std::llround exactly.
//
// The CRC-32 kernel is integer-exact like the bit kernels: every tier
// computes the same polynomial remainder, so the checksum on disk and on
// the wire does not depend on the tier that produced it.
//
// The exact-sum kernel is integer-exact too: it adds each float's fixed-
// point image into util::ExactSumVector's lazy-carry chunks, so every tier
// writes the same chunk integers.
//
// These kernels take raw pointers, not Tensor views: they are the innermost
// building blocks underneath the `_into` layer and must stay free of any
// per-call shape machinery.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.hpp"

namespace fhdnn::simd {

/// Chunks per element of the exact-sum kernel's accumulator: nine 32-bit
/// digits of a fixed-point value in units of 2^-149, least significant
/// first, each held in an int64 with 31 bits of headroom for carries that
/// have not run yet (util/exactsum.hpp).
inline constexpr std::int64_t kExactChunks = 9;

/// One lane-mapped GEMM call (DESIGN.md §11). Output element (r, l), for
/// r < rows and l < lanes, is the inner product over kk < k of
///   x[r * x_rs + kk * x_ks]   (the broadcast operand, streamed)
///   p[kk * p_ks + l]          (the k-major lane panel)
/// stored at c[r * c_rs + l * c_ls]. One SIMD lane is one output element:
/// the strides let the same kernel write a C tile (lanes over columns,
/// c_ls = 1) or a C^T tile (lanes over rows, c_rs = 1). Kernels read only
/// the listed elements, so a panel needs no padding; c must not overlap x
/// or p. Every kk contributes, zeros included: 0 * Inf and 0 * NaN must
/// give NaN as IEEE 754 says (the channel models rely on it). `Out` is the
/// stored type: float for the matmul family, double for the HD
/// classifier, which divides the unrounded dots by the norms. With `add`
/// set, the kernel stores c = c + Out(acc) instead of c = Out(acc): one
/// more rounded add per element, so a gradient lands in its accumulator
/// with the same bits as a separate y + 1.0f * x pass would give it.
template <typename Panel, typename Out = float>
struct GemmArgs {
  const float* x;
  std::int64_t x_rs, x_ks;
  const Panel* p;
  std::int64_t p_ks;
  Out* c;
  std::int64_t c_rs, c_ls;
  std::int64_t rows, lanes, k;
  bool add = false;
};

/// One tier's kernel table. Null entries in a tier table mean "no
/// accelerated version"; the dispatcher fills them from lower tiers.
/// All pointer arguments may alias only where the per-kernel contract
/// says so (see each member).
struct Kernels {
  // ---- float row kernels (bit-identical across tiers) ----
  /// y[i] += a * x[i]. y must not alias x unless y == x exactly.
  void (*axpy_f32)(float* y, float a, const float* x, std::int64_t n);
  /// out[i] = x[i] * a. out may alias x.
  void (*scale_f32)(float* out, const float* x, float a, std::int64_t n);
  /// out[i] = a[i] + b[i]. out may alias a and/or b.
  void (*add_f32)(float* out, const float* a, const float* b, std::int64_t n);
  /// matmul_bt's reduction: each output is one sequential double sum
  /// acc = acc + double(x) * p from +0.0 in ascending kk, rounded to float
  /// once. The panel is pre-widened to double (the product of two floats
  /// is exact in double, so widening either operand first changes nothing).
  void (*gemm_dot_f64)(const GemmArgs<double>& g);
  /// matmul / matmul_at's reduction: each output is one float chain
  /// c = c + x * p from +0.0F in ascending kk, multiply and add rounded
  /// separately.
  void (*gemm_axpy_f32)(const GemmArgs<float>& g);
  /// The HD classifier's reduction (cosine readout and refinement):
  /// gemm_dot_f64's chains over a float panel, widened in the load (exact,
  /// so the products are the same), stored as doubles without the final
  /// rounding, plus, if x_sq is non-null, each row's own squared norm
  /// x_sq[r] = sum of double(x) * double(x) from +0.0 in ascending kk. x_sq
  /// must not overlap the other arguments.
  void (*gemm_dot_norm_f64)(const GemmArgs<float, double>& g, double* x_sq);

  // ---- AGC quantizer kernels (bit-identical across tiers) ----
  /// max |x[i]| into *max_abs and true when every x[i] is finite; false
  /// (with *max_abs unspecified) as soon as any is NaN or +-Inf. The max
  /// is exact, so the lane order cannot change it.
  bool (*finite_max_abs_f32)(const float* x, std::int64_t n, float* max_abs);
  /// The AGC quantizer's rounding: q[i] = clamp(llround(double(x[i]) *
  /// gain), -max_level, max_level), halves rounded away from zero. x must
  /// be finite. Vector tiers round as t = trunc(s), then t +- 1 when
  /// |s - t| >= 0.5, which is llround exactly for |s| < 2^52 (s - t is
  /// exact there) and the identity above it. No aliasing.
  void (*agc_round_f32)(const float* x, std::int32_t* q, std::int64_t n,
                        double gain, std::int32_t max_level);
  /// The AGC receiver's scale-down: out[i] = float(double(q[i]) / gain),
  /// one correctly rounded divide and one rounding to float. No aliasing.
  void (*agc_scale_down_i32)(const std::int32_t* q, float* out,
                             std::int64_t n, double gain);

  // ---- bit kernels over packed hypervector words (integer-exact) ----
  /// Pack nbits sign bits: bit i of dst = (src[i] >= 0.0f), the library's
  /// sign(0) := +1 convention (NaN packs as 0 / -1, matching `>=`).
  /// Unwritten tail bits of the last word are zeroed. No aliasing.
  void (*pack_signs)(const float* src, std::uint64_t* dst, std::int64_t nbits);
  /// Unpack nbits to bipolar floats: dst[i] = bit set ? +1.0f : -1.0f.
  /// No aliasing.
  void (*unpack_signs)(const std::uint64_t* src, float* dst,
                       std::int64_t nbits);
  /// popcount(a ^ b) across nwords words — the packed hamming primitive.
  std::uint64_t (*hamming_words)(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t nwords);

  // ---- byte kernels (integer-exact) ----
  /// Advance the reflected CRC-32 register (polynomial 0xEDB88320) over n
  /// bytes and return it. The register is the un-inverted running value:
  /// util::crc32 seeds it with 0xFFFFFFFF and inverts the result, so a
  /// message may be fed in pieces. data may be null when n == 0.
  std::uint32_t (*crc32_update)(std::uint32_t crc, const std::uint8_t* data,
                                std::size_t n);

  // ---- exact-sum kernel (integer-exact) ----
  /// Add x[e] exactly into element e's kExactChunks chunks at
  /// chunks[e * kExactChunks]: |x[e]| = m * 2^shift quanta of 2^-149 (m <
  /// 2^24), and the two 32-bit halves of m << (shift % 32) are added, with
  /// the sign of x[e], to chunks shift / 32 and shift / 32 + 1. No carry
  /// runs and no branch is taken; each chunk changes by less than 2^32, and
  /// the adds wrap modulo 2^64. The caller rejects non-finite input (which
  /// would still write only its own element's chunks). No aliasing.
  void (*exact_accumulate_f32)(std::int64_t* chunks, const float* x,
                               std::int64_t n);

  // ---- float select kernels (bit-exact: no arithmetic) ----
  /// ReLU, out[i] = x[i] < 0 ? +0.0f : x[i] — the std::max(x[i], 0.0f)
  /// semantics. Every tier selects through a compare mask, never a vector
  /// max: max instructions return their second operand when either input
  /// is NaN and order -0.0f/+0.0f by operand position, whereas here a NaN
  /// (payload included) and -0.0f pass through with their bits intact.
  /// out may alias x.
  void (*relu_f32)(float* out, const float* x, std::int64_t n);
  /// ReLU backward, out[i] = x[i] <= 0 ? +0.0f : g[i]; a NaN x passes g.
  /// out may alias g and/or x.
  void (*relu_backward_f32)(float* out, const float* g, const float* x,
                            std::int64_t n);
  /// 2x2 max pooling with stride 2 over `rows` rows of `w` floats (both
  /// even) at x, whose first element has flat index `base`: output
  /// (i, j), at out[i * w / 2 + j], is the first maximum in row-major
  /// order of the window at rows 2i, 2i + 1 and columns 2j, 2j + 1, with a
  /// NaN above every number, the first of two NaNs kept and -0.0f equal to
  /// +0.0f; argmax gets its flat index. Vector tiers take each column's
  /// pair first and then the pair of column winners, breaking ties to the
  /// smaller window index, which picks the same element. No aliasing.
  void (*maxpool2_f32)(const float* x, std::int64_t rows, std::int64_t w,
                       std::int64_t base, float* out, std::int64_t* argmax);

  // ---- float pass kernels around the GEMMs (bit-identical across tiers) ----
  /// y[i] = y[i] + b: a convolution's bias over one output plane.
  void (*add_bias_f32)(float* y, float b, std::int64_t n);
  /// The stride-1 col2im fold of one input channel: x (h x w) is
  /// overwritten with +0.0f plus, in descending tap order (ky, kx), the
  /// element taps[(ky * k + kx) * oh * ow + oy * ow + ox] of each k x k
  /// tap plane that lands on it, oy = iy + pad - ky in [0, oh) and
  /// ox = ix + pad - kx in [0, ow): the ascending (oy, ox) order of a walk
  /// over the patches. Vector tiers keep a run of one input row in a
  /// register while every tap adds into it. No aliasing.
  void (*fold_taps_f32)(float* x, const float* taps, std::int64_t h,
                        std::int64_t w, std::int64_t oh, std::int64_t ow,
                        std::int64_t k, std::int64_t pad);
  /// y[j] = y[j] + s[j], where s[j] is the column sum of the row-major
  /// rows x cols matrix x: one float chain from +0.0f over the rows in
  /// ascending order, one lane per column. No aliasing.
  void (*col_sums_f32)(float* y, const float* x, std::int64_t rows,
                       std::int64_t cols);
  /// out = x^T for the row-major rows x cols matrix x (out is cols x
  /// rows). No aliasing.
  void (*transpose_f32)(float* out, const float* x, std::int64_t rows,
                        std::int64_t cols);
  /// One SGD step with momentum and weight decay, per element:
  /// g' = g + weight_decay * w; v = momentum * v + g'; w = w - lr * v,
  /// each multiply and add rounded apart. No aliasing.
  void (*sgd_step_f32)(float* w, float* v, const float* g, std::int64_t n,
                       float lr, float momentum, float weight_decay);
};

/// Kernel table for util::active_simd() — re-resolved on every call, so
/// util::set_simd_tier() takes effect immediately (the lookup is an atomic
/// load plus an array index).
const Kernels& kernels();

/// Kernel table for an explicit tier (clamped to detected support).
const Kernels& kernels_for(util::SimdTier tier);

namespace detail {

/// Per-tier partial tables; null when the TU was compiled without the
/// tier's ISA (non-x86 build, or an ancient compiler). Scalar is complete
/// by definition.
const Kernels& scalar_table();
const Kernels* avx2_table();    // null outside x86-64 builds
const Kernels* avx512_table();  // null outside x86-64 builds
const Kernels* neon_table();    // null outside aarch64 builds

}  // namespace detail

}  // namespace fhdnn::simd
