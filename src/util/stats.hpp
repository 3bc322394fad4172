// Small statistics helpers used by experiments and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fhdnn::stats {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> xs);
double mean(std::span<const float> xs);

/// Unbiased sample variance (n-1 denominator). Returns 0 for n < 2.
double variance(std::span<const double> xs);
double variance(std::span<const float> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Minimum / maximum; require non-empty input.
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Mean squared error between two equal-length spans.
double mse(std::span<const float> a, std::span<const float> b);

/// Running mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Unbiased; 0 for n < 2.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fhdnn::stats
