#include "util/cpu.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/error.hpp"
#include "util/log.hpp"

namespace fhdnn::util {

namespace {

/// Probe the executing CPU for the widest tier it can run. GCC/Clang's
/// __builtin_cpu_supports reads cpuid once and caches; on aarch64 NEON is
/// part of the baseline ISA so no runtime probe is needed.
SimdTier probe() {
#if defined(__x86_64__) || defined(_M_X64)
  return x86_tier({.avx2 = __builtin_cpu_supports("avx2") != 0,
                   .popcnt = __builtin_cpu_supports("popcnt") != 0,
                   .pclmul = __builtin_cpu_supports("pclmul") != 0,
                   .avx512f = __builtin_cpu_supports("avx512f") != 0,
                   .avx512bw = __builtin_cpu_supports("avx512bw") != 0});
#elif defined(__aarch64__)
  return SimdTier::Neon;
#else
  return SimdTier::Scalar;
#endif
}

/// Clamp a requested tier to what the CPU can execute. Cross-architecture
/// requests (e.g. `neon` on x86-64) fall to Scalar; same-architecture
/// requests fall to the best supported tier at or below the request.
SimdTier clamp_to_detected(SimdTier requested, SimdTier detected) {
  if (requested == SimdTier::Scalar) return SimdTier::Scalar;
  if (requested == SimdTier::Neon) {
    return detected == SimdTier::Neon ? SimdTier::Neon : SimdTier::Scalar;
  }
  // Avx2 / Avx512 requests: only meaningful when the CPU detected an x86
  // tier; take the smaller of request and detection.
  if (detected == SimdTier::Neon || detected == SimdTier::Scalar) {
    return detected == SimdTier::Neon ? SimdTier::Neon : SimdTier::Scalar;
  }
  return static_cast<int>(requested) <= static_cast<int>(detected) ? requested
                                                                   : detected;
}

/// Initial active tier: FHDNN_SIMD if set (clamped), else the detection.
SimdTier initial_tier() {
  const SimdTier detected = detected_simd();
  const char* env = std::getenv("FHDNN_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  const SimdTier requested = parse_simd_tier(env);
  const SimdTier clamped = clamp_to_detected(requested, detected);
  if (clamped != requested) {
    log_warn() << "FHDNN_SIMD=" << env << " not supported by this CPU; using "
               << simd_tier_name(clamped);
  }
  return clamped;
}

std::atomic<SimdTier>& active_tier_storage() {
  static std::atomic<SimdTier> tier{initial_tier()};
  return tier;
}

}  // namespace

SimdTier x86_tier(const X86Features& f) {
  // Each tier TU is compiled with every flag listed here (see
  // src/util/CMakeLists.txt); missing any one of them would fault on the
  // first kernel that uses it. Avx512 overlays the Avx2 table, so it needs
  // the Avx2 set as well.
  const bool avx2 = f.avx2 && f.popcnt && f.pclmul;
  if (avx2 && f.avx512f && f.avx512bw) return SimdTier::Avx512;
  return avx2 ? SimdTier::Avx2 : SimdTier::Scalar;
}

SimdTier detected_simd() {
  static const SimdTier tier = probe();
  return tier;
}

SimdTier active_simd() {
  return active_tier_storage().load(std::memory_order_relaxed);
}

SimdTier set_simd_tier(SimdTier tier) {
  const SimdTier clamped = clamp_to_detected(tier, detected_simd());
  active_tier_storage().store(clamped, std::memory_order_relaxed);
  return clamped;
}

std::vector<SimdTier> available_simd_tiers() {
  std::vector<SimdTier> out;
  for (const SimdTier t : {SimdTier::Scalar, SimdTier::Neon, SimdTier::Avx2,
                           SimdTier::Avx512}) {
    if (clamp_to_detected(t, detected_simd()) == t) out.push_back(t);
  }
  return out;
}

SimdTier parse_simd_tier(std::string_view name) {
  if (name == "scalar") return SimdTier::Scalar;
  if (name == "neon") return SimdTier::Neon;
  if (name == "avx2") return SimdTier::Avx2;
  if (name == "avx512") return SimdTier::Avx512;
  if (name == "native") return detected_simd();
  throw Error("unknown SIMD tier '" + std::string(name) +
              "' (expected scalar, neon, avx2, avx512, or native)");
}

std::string_view simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::Scalar:
      return "scalar";
    case SimdTier::Neon:
      return "neon";
    case SimdTier::Avx2:
      return "avx2";
    case SimdTier::Avx512:
      return "avx512";
  }
  return "scalar";
}

}  // namespace fhdnn::util
