#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace fhdnn {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a over a label, used to derive independent sub-streams.
std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

Rng Rng::fork(std::string_view label) const {
  std::uint64_t mix = hash_label(label);
  // Mix the child's seed from all four state words plus the label hash so
  // that forks of forks stay independent.
  std::uint64_t seed = mix;
  for (const auto s : s_) {
    seed = rotl(seed ^ s, 29) * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
  }
  return Rng(seed);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::randint(std::int64_t lo, std::int64_t hi) {
  FHDNN_CHECK(lo <= hi, "randint range [" << lo << ", " << hi << "]");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t r = next_u64();
  while (r >= limit) r = next_u64();
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  FHDNN_CHECK(p >= 0.0 && p <= 1.0, "bernoulli p=" << p);
  return uniform() < p;
}

std::uint64_t Rng::geometric(double p) {
  FHDNN_CHECK(p > 0.0 && p <= 1.0, "geometric p=" << p);
  if (p >= 1.0) return 1;
  double u = uniform();
  while (u <= 0.0) u = uniform();
  // ceil(log(u) / log(1-p)) is Geometric(p) on {1, 2, ...}.
  const double g = std::ceil(std::log(u) / std::log1p(-p));
  if (g < 1.0) return 1;
  if (g > 9.0e18) return static_cast<std::uint64_t>(9.0e18);
  return static_cast<std::uint64_t>(g);
}

void Rng::fill_normal(std::vector<float>& out, float mean, float stddev) {
  for (auto& v : out) v = static_cast<float>(normal(mean, stddev));
}

void Rng::fill_uniform(std::vector<float>& out, float lo, float hi) {
  for (auto& v : out) v = static_cast<float>(uniform(lo, hi));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  FHDNN_CHECK(k <= n, "cannot sample " << k << " from " << n);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  // Partial Fisher-Yates: first k entries are the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        randint(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) {
  FHDNN_CHECK(alpha > 0.0 && k > 0, "dirichlet(alpha=" << alpha << ", k=" << k << ")");
  // Marsaglia-Tsang gamma sampling; for alpha < 1 use the boost
  // Gamma(alpha) = Gamma(alpha+1) * U^(1/alpha).
  auto sample_gamma = [this](double shape) {
    double boost = 1.0;
    double a = shape;
    if (a < 1.0) {
      double u = uniform();
      while (u <= 1e-300) u = uniform();
      boost = std::pow(u, 1.0 / a);
      a += 1.0;
    }
    const double d = a - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v;
      if (u > 1e-300 &&
          std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return boost * d * v;
      }
    }
  };
  std::vector<double> out(k);
  double sum = 0.0;
  for (auto& v : out) {
    v = sample_gamma(alpha);
    sum += v;
  }
  if (sum <= 0.0) {  // numerically degenerate; fall back to uniform simplex
    for (auto& v : out) v = 1.0 / static_cast<double>(k);
    return out;
  }
  for (auto& v : out) v /= sum;
  return out;
}

}  // namespace fhdnn
