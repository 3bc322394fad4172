// Heap-allocation instrumentation for the zero-allocation tests.
//
// Linking `alloc_spy.cpp` into a target replaces the global operator
// new/delete with counting versions. `alloc_spy_snapshot()` reads the
// process-wide counters; the difference between two snapshots bounds the
// heap traffic of the code between them. Only test_memory links the spy —
// the library itself never depends on it.
#pragma once

#include <cstdint>

namespace fhdnn::util {

struct AllocSpySnapshot {
  std::uint64_t count = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< total bytes requested
};

/// Current counters. Only targets that compile alloc_spy.cpp may call this
/// (the symbol lives there).
// fhdnn-lint: allow(test-only-api) the zero-allocation tests' probe
AllocSpySnapshot alloc_spy_snapshot();

}  // namespace fhdnn::util
