#include "util/fpenv.hpp"

#include <cfenv>
#include <limits>

#include "util/error.hpp"

#if defined(__SSE2__) && (defined(__x86_64__) || defined(__i386__))
// MXCSR access (FTZ/DAZ control bits), not SIMD math — the kernel-table
// isolation rule does not apply to the FP-environment probe.
#include <immintrin.h>  // fhdnn-lint: allow(simd-isolation)
#define FHDNN_HAVE_MXCSR 1
#endif

// Fast-math reassociates sums and substitutes reciprocals, which breaks
// bit-identical histories unconditionally — reject it at compile time
// rather than probing for its symptoms at runtime.
#ifdef __FAST_MATH__
#error "FHDnn must not be compiled with -ffast-math (breaks bit-identical \
training histories; see DESIGN.md §6)"
#endif

namespace fhdnn::util {

namespace {

/// Behavioural probe: under FTZ, min_float / 2 flushes to zero instead of
/// producing a subnormal. `volatile` keeps the compiler from folding the
/// arithmetic at build time (where the FP environment is the compiler's,
/// not the process's).
bool ftz_active() {
  volatile float tiny = std::numeric_limits<float>::min();
  volatile float half = tiny * 0.5F;
  return half == 0.0F;
}

/// Under DAZ, a subnormal input is treated as zero before the multiply.
bool daz_active() {
  volatile float denorm = std::numeric_limits<float>::denorm_min();
  volatile float scaled = denorm * 2.0F;
  return scaled == 0.0F;
}

}  // namespace

std::string fp_environment_issues() {
  std::string issues;
  const auto add = [&issues](const char* what) {
    if (!issues.empty()) issues += "; ";
    issues += what;
  };
  if (ftz_active()) add("flush-to-zero (FTZ) is active");
  if (daz_active()) add("denormals-are-zero (DAZ) is active");
  if (std::fegetround() != FE_TONEAREST) {
    add("rounding mode is not round-to-nearest");
  }
#ifdef FHDNN_HAVE_MXCSR
  const unsigned csr = _mm_getcsr();
  if ((csr & 0x8000U) != 0) add("MXCSR.FTZ bit is set");
  if ((csr & 0x0040U) != 0) add("MXCSR.DAZ bit is set");
#endif
  return issues;
}

void assert_fp_environment() {
  const std::string issues = fp_environment_issues();
  FHDNN_CHECK(issues.empty(),
              "hostile floating-point environment: "
                  << issues
                  << " — bit-identical training histories are impossible "
                     "(DESIGN.md §6/§10)");
}

}  // namespace fhdnn::util
