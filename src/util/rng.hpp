// Deterministic random number generation for experiments.
//
// All stochastic components of the library (data synthesis, projection
// matrices, client sampling, channel noise, ...) draw from an `fhdnn::Rng`.
// Reproducibility rules:
//   * Every experiment owns a root seed.
//   * Independent components derive *named sub-streams* via `Rng::fork`,
//     which mixes the parent state with a label hash; two forks with
//     different labels are statistically independent, and the same
//     (seed, label) pair always produces the same stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fhdnn {

namespace util {
class ByteWriter;
class ByteReader;
}  // namespace util

/// Full generator state: the xoshiro256** words plus the cached Box-Muller
/// sample. Restoring it resumes the stream mid-sequence bit-exactly — the
/// snapshot/resume path depends on this.
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// RngState <-> bytes (util/bytes), one encoding for snapshots and wire
/// frames: the four state words, the cached-normal flag as a u8, the cached
/// normal as raw IEEE bits. get_rng_state rejects a flag other than 0 or 1
/// (DecodeError kSchema).
void put_rng_state(util::ByteWriter& w, const RngState& s);
[[nodiscard]] RngState get_rng_state(util::ByteReader& r);

/// Counter-based deterministic RNG built on splitmix64 state advancement and
/// xoshiro256** output. Cheap to copy; copies continue independently.
class Rng {
 public:
  /// Seeds the generator. Identical seeds give identical streams on every
  /// platform (no std:: distribution objects are used internally).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derive an independent child stream labeled by `label`. Deterministic in
  /// (current state, label); does not perturb this generator.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t randint(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (deterministic, platform independent).
  double normal();
  /// Normal with the given mean / stddev.
  double normal(double mean, double stddev);
  /// True with probability p.
  bool bernoulli(double p);

  /// Geometric variate on {1, 2, ...}: number of Bernoulli(p) trials up to
  /// and including the first success. Lets bit-error channels sweep long
  /// bitstreams in O(#flips) instead of O(#bits).
  std::uint64_t geometric(double p);

  /// Fill `out` with i.i.d. N(mean, stddev^2) samples.
  void fill_normal(std::vector<float>& out, float mean, float stddev);
  /// Fill `out` with i.i.d. U[lo, hi) samples.
  void fill_uniform(std::vector<float>& out, float lo, float hi);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          randint(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Draw from a Dirichlet(alpha, ..., alpha) distribution of dimension k.
  std::vector<double> dirichlet(double alpha, std::size_t k);

  /// Capture the exact stream position (see RngState).
  [[nodiscard]] RngState state() const {
    return RngState{{s_[0], s_[1], s_[2], s_[3]}, has_cached_normal_,
                    cached_normal_};
  }

  /// Restore a previously captured stream position.
  void set_state(const RngState& st) {
    std::copy(std::begin(st.s), std::end(st.s), std::begin(s_));
    has_cached_normal_ = st.has_cached_normal;
    cached_normal_ = st.cached_normal;
  }

 private:
  // xoshiro256** state.
  std::uint64_t s_[4];

  // Cached second Box-Muller sample.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fhdnn
