// In-memory span recorder for the traced run.
//
// Spans are recorded only by the benchmark's decorators and probes, around
// calls into the library's public seams; the library itself is untouched.
// Spans stay in memory until the run ends, then leave as Chrome
// trace-event JSON (open it in Perfetto or chrome://tracing) plus a table
// of each layer's self time: its duration minus the part its child spans
// cover.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< a string literal: the layer and step
  std::uint64_t id = 0;      ///< unique within the run, never 0
  std::uint64_t parent = 0;  ///< the span that caused this one; 0 at a root
  std::uint32_t thread = 0;  ///< small per-thread index, stable in a process
  std::int64_t round = 0;    ///< federated round the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe span store with a fixed capacity; spans past it are counted
/// and dropped, so a long traced run cannot grow without bound.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = std::size_t{1} << 20);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Monotonic clock in nanoseconds (steady_clock).
  static std::int64_t now_ns();
  /// Index of the calling thread (assigned on first call).
  static std::uint32_t thread_index();

  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);

  /// The span whose work other threads are doing right now (the server's
  /// drive span while workers serve its round) and that round's index.
  void set_cause(std::uint64_t span_id, std::int64_t round) {
    cause_round_.store(round);
    cause_.store(span_id);
  }
  std::uint64_t cause() const { return cause_.load(); }
  std::int64_t cause_round() const { return cause_round_.load(); }

  /// Snapshot of the recorded spans, ordered by start time.
  std::vector<Span> spans() const;
  std::size_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::size_t dropped_ = 0;  // guarded by mu_
  std::size_t capacity_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> cause_{0};
  std::atomic<std::int64_t> cause_round_{0};
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
             std::int64_t round);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Per span name: how many spans, their summed duration, and their summed
/// self time (duration minus the union of the direct children's intervals).
struct LayerTime {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<LayerTime> self_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON: one complete ("X") event per span with
/// microsecond timestamps, at most `max_events` of them (earliest first);
/// `metadata_json` must be a JSON object and lands under "metadata".
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& metadata_json,
                              std::size_t max_events);

/// The self_times table as a JSON object keyed by span name.
std::string self_time_json(const std::vector<LayerTime>& layers);

}  // namespace perfbench
