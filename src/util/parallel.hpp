// Deterministic thread-pool parallelism for the tensor kernels and the FL
// client simulation.
//
// Design rules that make every parallel path bit-identical to the serial
// schedule (`FHDNN_THREADS=1`):
//   * `parallel_for` splits [begin, end) into contiguous chunks whose
//     boundaries depend only on (begin, end, grain) — never on the thread
//     count or on which worker picks a chunk up;
//   * each index belongs to exactly one chunk, so a body that writes a
//     private output region per index (a matmul row, an im2col row, a
//     client slot) races with nobody and produces the same bits at every
//     thread count;
//   * cross-item reductions (FedAvg aggregation, loss averaging) are NOT
//     parallelized — callers collect per-item results and reduce serially
//     in fixed index order.
// Nested calls from inside a parallel region run inline (one level of
// parallelism): client-level parallelism in the FL trainers wins over
// row-level parallelism in the kernels underneath it.
//
// The pool is process-global, lazily created, and sized by the
// `FHDNN_THREADS` environment variable (default: hardware concurrency).
// `set_num_threads` overrides the count at runtime (used by tests and the
// scaling bench); `FHDNN_THREADS=1` disables the pool entirely.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace fhdnn::parallel {

/// Hard ceiling on pool size (a backstop, far above any sane setting).
inline constexpr int kMaxThreads = 256;

/// Non-owning reference to a `void(chunk_begin, chunk_end)` callable.
/// Replaces std::function in the dispatch path: kernel lambdas capture more
/// than the small-buffer optimization holds, so std::function would heap-
/// allocate on every parallel_for call — a per-step leak in the otherwise
/// allocation-free steady state (DESIGN.md §9). The referenced callable
/// must outlive the parallel_for call (always true for the lambda-argument
/// idiom every call site uses: a temporary lives to the end of the full
/// expression).
class ChunkFn {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, ChunkFn>>>
  ChunkFn(F&& f)  // NOLINT(google-explicit-constructor)
      : ctx_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* ctx, std::int64_t b, std::int64_t e) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(b, e);
        }) {}

  void operator()(std::int64_t b, std::int64_t e) const { call_(ctx_, b, e); }

 private:
  void* ctx_;
  void (*call_)(void*, std::int64_t, std::int64_t);
};

/// Configured thread count. Initialized on first use from `FHDNN_THREADS`
/// (falling back to std::thread::hardware_concurrency()); always >= 1.
int num_threads();

/// Override the configured count, clamped to [1, kMaxThreads]. Takes effect
/// on the next parallel_for; already-spawned workers stay alive.
void set_num_threads(int n);

/// Run `fn(chunk_begin, chunk_end)` over contiguous chunks of at most
/// `grain` indices covering [begin, end), on up to num_threads() threads
/// (the calling thread participates). Runs `fn(begin, end)` inline when the
/// range is empty-or-single-chunk, the pool is configured serial, or the
/// caller is already inside a parallel region. The first exception thrown
/// by any chunk is rethrown on the calling thread after all chunks stop.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  ChunkFn fn);

/// Grain size that puts at least `min_work` scalar operations into each
/// chunk when one item costs `work_per_item` ops — keeps small loops serial
/// and bounds per-chunk dispatch overhead.
std::int64_t grain_for(std::int64_t work_per_item,
                       std::int64_t min_work = 1 << 15);

}  // namespace fhdnn::parallel
