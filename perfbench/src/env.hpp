// The run's environment stamp and process-level measurements.
#pragma once

#include <string>

namespace perfbench {

/// Directory (relative to the working directory) for checkpoints and trace
/// files; created on first use.
const std::string& output_dir();

/// Hardware threads of this machine (nproc), at least 1.
int nproc();

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mib();

/// JSON object stamping a result: SIMD tier in use, pool threads, nproc,
/// compiler, build type and git SHA (PERFBENCH_GIT_SHA, set by run.py).
std::string env_json();

}  // namespace perfbench
