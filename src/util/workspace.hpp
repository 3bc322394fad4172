// Per-thread bump-arena for kernel scratch memory.
//
// The `_into` kernels and the nn layers need short-lived scratch (im2col
// column matrices, gradient staging buffers) on every training step. A
// general-purpose allocator would pay a heap round-trip per buffer per step;
// the Workspace instead bumps a pointer through a few long-lived blocks and
// rewinds it when the enclosing `Scope` ends. After a warmup step has grown
// the arena to the model's high-water mark, every subsequent step runs with
// zero heap allocations (tests/test_memory.cpp enforces this).
//
// Ownership model (DESIGN.md §9): one arena per thread, reached through
// `tls_workspace()`. The FL engine's worker threads therefore reuse a single
// arena across clients and rounds; `reset()` at a client/batch boundary
// coalesces any fragmented growth into one block so the steady state bumps
// through contiguous memory.
//
// Pointers returned by `floats()` / `indices()` / `doubles()` are valid
// until the innermost enclosing Scope is destroyed (or until reset()); they
// are never valid across those boundaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fhdnn::util {

/// Counters describing an arena's lifetime behaviour. `heap_allocations`
/// and `high_water_bytes` are the numbers the zero-allocation tests
/// check: once warmup is done, both must stop moving.
struct WorkspaceStats {
  std::uint64_t heap_allocations = 0;  ///< backing blocks ever malloc'd
  std::uint64_t capacity_bytes = 0;    ///< total backing capacity
  std::uint64_t bytes_in_use = 0;      ///< currently bumped-out bytes
  std::uint64_t high_water_bytes = 0;  ///< max bytes_in_use ever
  std::uint64_t alloc_calls = 0;       ///< floats()/indices()/doubles() calls
  std::uint64_t resets = 0;            ///< reset() calls
};

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Scratch array of `n` floats, 16-byte aligned, uninitialized. Valid
  /// until the innermost enclosing Scope ends.
  float* floats(std::int64_t n);

  /// Scratch array of `n` int64 indices (maxpool argmax and friends).
  std::int64_t* indices(std::int64_t n);

  /// Scratch array of `n` doubles (the HD classifier's norm and dot
  /// accumulators).
  double* doubles(std::int64_t n);

  /// Rewind everything and coalesce fragmented growth into one block so
  /// steady-state bumping is contiguous. Call at a batch/client boundary
  /// when no scratch pointers are live. In FHDNN_CHECKED builds, throws
  /// fhdnn::Error if any Scope is still open — resetting under a live
  /// Scope invalidates its saved mark and is always a caller bug (the
  /// Scope's destructor would rewind into a freed/relocated block).
  void reset();

  const WorkspaceStats& stats() const { return stats_; }

  /// Number of currently-open Scopes on this arena. Zero at every
  /// client/batch boundary; the FL engines assert this in FHDNN_CHECKED
  /// builds to catch Scope leaks (a Scope held across a boundary pins the
  /// whole arena high-water region).
  std::int64_t scope_depth() const { return scope_depth_; }

  /// RAII bump mark: records the arena position on entry and rewinds to it
  /// on exit. Scopes nest; each kernel/layer opens one around its scratch.
  class Scope {
   public:
    explicit Scope(Workspace& ws);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t block_;
    std::size_t used_;
  };

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate(std::size_t bytes);

  /// Smallest backing block, and the growth step after each reset().
  static constexpr std::size_t kMinBlock = 64 * 1024;

  std::vector<Block> blocks_;
  std::size_t grow_step_ = kMinBlock;  ///< next block for a small request
  std::size_t active_ = 0;  ///< index of the block currently bumped
  std::int64_t scope_depth_ = 0;  ///< open Scopes (leak detection)
  WorkspaceStats stats_;
};

/// The calling thread's arena. Workers in the process-global thread pool
/// each get their own; it persists for the thread's lifetime.
Workspace& tls_workspace();

}  // namespace fhdnn::util
