// Floating-point environment guard.
//
// The bit-identical-history contract (DESIGN.md §6) assumes strict IEEE-754
// float32/float64: round-to-nearest, subnormals preserved, no fast-math
// value substitutions. A process that flips FTZ/DAZ in the MXCSR (some
// audio/game runtimes do, and -ffast-math does at startup via crtfastmath)
// would silently change training histories. In FHDNN_CHECKED builds the
// engines reject such an environment at startup instead of diverging from
// the goldens hours later.
#pragma once

#include <string>

namespace fhdnn::util {

/// Empty string when the environment is strict IEEE-754; otherwise a
/// human-readable list of problems (FTZ active, DAZ active, rounding mode
/// not nearest). Probes behaviour (subnormal arithmetic through volatiles)
/// plus the MXCSR bits directly on x86.
std::string fp_environment_issues();

/// Throw fhdnn::Error describing the problems when the environment is not
/// strict. Compiling the library with -ffast-math is rejected at compile
/// time (fpenv.cpp has a #error for __FAST_MATH__).
void assert_fp_environment();

}  // namespace fhdnn::util
