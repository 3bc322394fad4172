#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace fhdnn::parallel {

namespace {

thread_local bool tl_in_parallel = false;

int clamp_threads(long long n) {
  return static_cast<int>(std::clamp<long long>(n, 1, kMaxThreads));
}

int initial_threads() {
  if (const char* s = std::getenv("FHDNN_THREADS")) {
    char* end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end != s && *end == '\0' && v > 0) return clamp_threads(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : clamp_threads(hw);
}

std::atomic<int>& configured_threads() {
  static std::atomic<int> count{initial_threads()};
  return count;
}

/// One dispatched parallel_for. Chunks are claimed via an atomic counter;
/// which thread runs a chunk never affects the result (chunks are disjoint
/// and the body owns its output region), so work stealing is free.
struct Job {
  std::int64_t begin = 0;
  std::int64_t grain = 1;
  std::int64_t end = 0;
  std::int64_t nchunks = 0;
  const ChunkFn* fn = nullptr;
  std::atomic<std::int64_t> next_chunk{0};
  std::atomic<int> helper_slots{0};  ///< workers allowed beyond the caller
  std::mutex error_mu;
  std::exception_ptr error;

  void work() {
    for (;;) {
      const std::int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) return;
      const std::int64_t b = begin + c * grain;
      const std::int64_t e = std::min(end, b + grain);
      try {
        (*fn)(b, e);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
        // Drain remaining chunks so every thread stops promptly.
        next_chunk.store(nchunks, std::memory_order_relaxed);
        return;
      }
    }
  }
};

/// Lazily-created process-global pool. One job in flight at a time
/// (dispatch_mu_); nested parallel_for calls never reach the pool.
class Pool {
 public:
  static Pool& instance() {
    // One-time lazy init, not per-round allocation; leaked so workers may
    // outlive static destruction order.
    // fhdnn-lint: allow(det-effects)
    static Pool* pool = new Pool();
    return *pool;
  }

  void run(Job& job, int helpers) {
    const std::lock_guard<std::mutex> dispatch(dispatch_mu_);
    ensure_workers(helpers);
    int expected_acks = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++seq_;
      expected_acks = static_cast<int>(workers_.size());
      pending_acks_ = expected_acks;
    }
    cv_.notify_all();
    // The caller is one of the workers for its own job.
    const bool was_in_parallel = tl_in_parallel;
    tl_in_parallel = true;
    job.work();
    tl_in_parallel = was_in_parallel;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return pending_acks_ == 0; });
      job_ = nullptr;
    }
  }

 private:
  Pool() = default;

  void ensure_workers(int n) {
    const std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < n &&
           static_cast<int>(workers_.size()) < kMaxThreads - 1) {
      // A fresh worker must not ack jobs dispatched before it existed.
      const std::uint64_t start_seq = seq_;
      workers_.emplace_back([this, start_seq] { worker_loop(start_seq); });
    }
  }

  void worker_loop(std::uint64_t seen) {
    tl_in_parallel = true;  // workers never dispatch nested jobs
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return seq_ != seen; });
        seen = seq_;
        job = job_;
      }
      // Every worker wakes for every job; only those that win a helper slot
      // touch chunks, so `set_num_threads` genuinely bounds concurrency.
      if (job != nullptr &&
          job->helper_slots.fetch_sub(1, std::memory_order_relaxed) > 0) {
        job->work();
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (--pending_acks_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex dispatch_mu_;  ///< serializes concurrent top-level dispatches

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;  // detached-by-leak; see instance()
  Job* job_ = nullptr;
  std::uint64_t seq_ = 0;
  int pending_acks_ = 0;
};

}  // namespace

int num_threads() { return configured_threads().load(std::memory_order_relaxed); }

void set_num_threads(int n) {
  configured_threads().store(clamp_threads(n), std::memory_order_relaxed);
}

std::int64_t grain_for(std::int64_t work_per_item, std::int64_t min_work) {
  return std::max<std::int64_t>(1, min_work / std::max<std::int64_t>(
                                                  1, work_per_item));
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  ChunkFn fn) {
  if (end <= begin) return;
  FHDNN_CHECK(grain >= 1, "parallel_for grain " << grain);
  const std::int64_t n = end - begin;
  const std::int64_t nchunks = (n + grain - 1) / grain;
  const int threads = num_threads();
  if (threads <= 1 || nchunks <= 1 || tl_in_parallel) {
    fn(begin, end);
    return;
  }
  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.nchunks = nchunks;
  job.fn = &fn;
  const int helpers = static_cast<int>(
      std::min<std::int64_t>(threads - 1, nchunks - 1));
  job.helper_slots.store(helpers, std::memory_order_relaxed);
  Pool::instance().run(job, helpers);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace fhdnn::parallel
