// Runtime CPU-feature probe and SIMD-tier selection (DESIGN.md §11).
//
// The library ships one binary with several implementations of its hot
// kernels (util/simd.hpp): a portable scalar tier that doubles as the
// golden oracle, and wider tiers (NEON on aarch64, AVX2 / AVX-512 on
// x86-64) compiled into dedicated translation units with the matching
// target flags. Which tier actually runs is a *runtime* decision:
//   * `detected_simd()` probes the executing CPU once (cpuid on x86-64,
//     architecture macros on aarch64) and caches the best tier whose every
//     compiled-in ISA extension the CPU reports;
//   * `active_simd()` is the tier kernels dispatch on — the detected tier,
//     optionally lowered by the FHDNN_SIMD environment variable
//     (`scalar`, `neon`, `avx2`, `avx512`, or `native`) or by
//     `set_simd_tier()` from tests and benches.
// A request for a tier the CPU cannot execute is clamped down to the best
// supported one (never up), so forcing `avx512` on an AVX2-only machine
// degrades gracefully instead of faulting.
//
// Every tier is bit-exact by contract: float kernels perform the same
// per-element IEEE-754 operations in the same order (no FMA contraction,
// no reassociated reductions), and the bit kernels are integer-exact, so
// golden histories do not depend on the tier that produced them. The
// contract is pinned by the packed-vs-scalar and SIMD-vs-scalar
// equivalence tests (tests/test_packed.cpp, tests/test_properties.cpp).
#pragma once

#include <string_view>
#include <vector>

namespace fhdnn::util {

/// SIMD dispatch tiers, ordered by preference within an architecture.
/// Scalar is always available; Neon exists only on aarch64, Avx2/Avx512
/// only on x86-64.
enum class SimdTier { Scalar = 0, Neon = 1, Avx2 = 2, Avx512 = 3 };

/// The x86-64 ISA extensions the AVX2 and AVX-512 tier TUs are compiled
/// for.
struct X86Features {
  bool avx2 = false;
  bool popcnt = false;
  bool pclmul = false;
  bool avx512f = false;
  bool avx512bw = false;
};

/// Widest x86-64 tier whose every compiled-in extension `f` reports:
/// Avx2 needs avx2 + popcnt + pclmul, Avx512 needs that plus avx512f +
/// avx512bw; anything less is Scalar. detected_simd() applies it to cpuid.
SimdTier x86_tier(const X86Features& f);

/// Best tier the executing CPU supports (probed once, cached).
SimdTier detected_simd();

/// The tier kernel dispatch uses right now: `detected_simd()` clamped by
/// the FHDNN_SIMD environment variable (read once on first call) and by
/// any subsequent `set_simd_tier()`.
SimdTier active_simd();

/// Force the active tier (test/bench hook). Requests above what the CPU
/// supports are clamped to `detected_simd()`; returns the tier actually
/// activated.
SimdTier set_simd_tier(SimdTier tier);

/// Every tier set_simd_tier() would activate unclamped on this CPU, lowest
/// first; scalar is always among them. Changes no state.
std::vector<SimdTier> available_simd_tiers();

/// Parse `scalar` / `neon` / `avx2` / `avx512` / `native` (case-sensitive).
/// `native` means "best detected". Throws fhdnn::Error on anything else.
SimdTier parse_simd_tier(std::string_view name);

/// Lower-case display name of a tier ("scalar", "neon", "avx2", "avx512").
std::string_view simd_tier_name(SimdTier tier);

}  // namespace fhdnn::util
