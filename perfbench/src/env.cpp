#include "env.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>  // fhdnn-lint: allow(raw-thread) — hardware_concurrency only

#include "util/cpu.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::string& output_dir() {
  static const std::string dir = [] {
    std::filesystem::create_directories(".bench_out");
    return std::string(".bench_out");
  }();
  return dir;
}

int nproc() {
  // fhdnn-lint: allow(raw-thread) — hardware_concurrency only, no spawning
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string env_json() {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::ostringstream out;
  out << "{\"simd\": \""
      << fhdnn::util::simd_tier_name(fhdnn::util::active_simd())
      << "\", \"threads\": " << fhdnn::parallel::num_threads()
      << ", \"nproc\": " << nproc()
      << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \""
      << (sha && *sha ? sha : "unknown") << "\"}";
  return out.str();
}

}  // namespace perfbench
