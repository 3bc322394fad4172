#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace fhdnn::stats {

namespace {

template <typename T>
double mean_impl(std::span<const T> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const auto x : xs) s += static_cast<double>(x);
  return s / static_cast<double>(xs.size());
}

template <typename T>
double variance_impl(std::span<const T> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean_impl(xs);
  double s = 0.0;
  for (const auto x : xs) {
    const double d = static_cast<double>(x) - m;
    s += d * d;
  }
  return s / static_cast<double>(xs.size() - 1);
}

}  // namespace

double mean(std::span<const double> xs) { return mean_impl(xs); }
double mean(std::span<const float> xs) { return mean_impl(xs); }
double variance(std::span<const double> xs) { return variance_impl(xs); }
double variance(std::span<const float> xs) { return variance_impl(xs); }
double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  FHDNN_CHECK(!xs.empty(), "min of empty span");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  FHDNN_CHECK(!xs.empty(), "max of empty span");
  return *std::max_element(xs.begin(), xs.end());
}

double mse(std::span<const float> a, std::span<const float> b) {
  FHDNN_CHECK(a.size() == b.size() && !a.empty(), "mse size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return s / static_cast<double>(a.size());
}

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

}  // namespace fhdnn::stats
