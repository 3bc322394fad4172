// Summary statistics the benchmark reports: medians, the tail percentile
// rule, parallel idle share, and interval coverage for span self time.
// Pure functions over plain numbers, so tests/test_measure.cpp pins them
// without running a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double median(std::vector<double> values);

/// The tail of a sample: the highest nearest-rank percentile that still has
/// at least `min_beyond` samples strictly above its rank.
struct Tail {
  double value = 0.0;       ///< sample at that rank
  double percentile = 0.0;  ///< 100 * rank / count
  std::size_t beyond = 0;   ///< samples ranked above it
  std::size_t count = 0;    ///< sample size
};

/// For n sorted samples x[1..n] the answer is x[n - min_beyond] at
/// percentile 100 * (n - min_beyond) / n. A sample too small to leave
/// `min_beyond` samples above any rank falls back to the median rank
/// (ceil(n / 2)), and `beyond` then says how few samples lie above it.
Tail tail(std::vector<double> values, std::size_t min_beyond = 10);

/// Share of `threads` x `wall` that no client task occupied:
/// 1 - busy / (threads * wall), clamped to [0, 1]; 0 when wall is not
/// positive.
double idle_share(double busy, int threads, double wall);

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of the part of `parent` that the union of `children` covers.
/// Overlapping children (parallel client tasks) count once; parts of a
/// child outside the parent do not count.
std::int64_t covered(std::vector<Interval> children, Interval parent);

}  // namespace perfbench
