#include "channel/bits.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace fhdnn::channel {

std::uint64_t geometric_gap(double p, Rng& rng) {
  // A scaled BER can overshoot 1.0 (deadline-driven error_scale multiplies
  // the configured rate); clamp instead of tripping Rng::geometric's
  // domain check — at p == 1.0 every bit flips, i.e. every gap is 1.
  const double clamped = std::min(p, 1.0);
  FHDNN_CHECK(clamped > 0.0, "geometric_gap p=" << p);
  // Rng::geometric guarantees a result >= 1; the max() is a defensive
  // backstop so a zero gap can never underflow the callers' `gap - 1`
  // first-position arithmetic into a huge unsigned offset.
  return std::max<std::uint64_t>(1, rng.geometric(clamped));
}

std::size_t flip_float_bits(std::vector<float>& payload, double ber, Rng& rng) {
  if (ber <= 0.0 || payload.empty()) return 0;
  const std::uint64_t total_bits = payload.size() * 32ULL;
  std::size_t flips = 0;
  std::uint64_t pos = geometric_gap(ber, rng) - 1;
  while (pos < total_bits) {
    const std::size_t word = static_cast<std::size_t>(pos / 32ULL);
    const unsigned bit = static_cast<unsigned>(pos % 32ULL);
    auto u = std::bit_cast<std::uint32_t>(payload[word]);
    u ^= (1U << bit);
    payload[word] = std::bit_cast<float>(u);
    ++flips;
    pos += geometric_gap(ber, rng);
  }
  return flips;
}

std::size_t flip_quantized_bits(hdc::QuantizedVector& q, double ber, Rng& rng) {
  if (ber <= 0.0 || q.values.empty()) return 0;
  const unsigned bits = static_cast<unsigned>(q.bitwidth);
  const std::uint64_t total_bits = q.values.size() * static_cast<std::uint64_t>(bits);
  const std::int32_t max_level = static_cast<std::int32_t>((1U << (bits - 1)) - 1U);
  std::size_t flips = 0;
  std::uint64_t pos = geometric_gap(ber, rng) - 1;
  while (pos < total_bits) {
    const std::size_t idx = static_cast<std::size_t>(pos / bits);
    const unsigned bit = static_cast<unsigned>(pos % bits);
    // Two's-complement B-bit view: mask to B bits, flip, sign-extend back.
    const std::uint32_t mask = (bits >= 32) ? 0xFFFFFFFFU : ((1U << bits) - 1U);
    std::uint32_t raw = static_cast<std::uint32_t>(q.values[idx]) & mask;
    raw ^= (1U << bit);
    // Sign-extend from bit B-1.
    std::int32_t v;
    if (raw & (1U << (bits - 1))) {
      v = static_cast<std::int32_t>(raw | ~mask);
    } else {
      v = static_cast<std::int32_t>(raw);
    }
    // The AGC receiver clamps to the representable range.
    if (v > max_level) v = max_level;
    if (v < -max_level) v = -max_level;
    q.values[idx] = v;
    ++flips;
    pos += geometric_gap(ber, rng);
  }
  return flips;
}

std::size_t flip_sign_bits(hdc::PackedModel& model, double ber, Rng& rng) {
  FHDNN_CHECK(model.rows >= 0 && model.d >= 0 &&
                  static_cast<std::int64_t>(model.words.size()) ==
                      model.rows * model.words_per_row(),
              "flip_sign_bits: inconsistent " << model.rows << "x" << model.d
                                              << " PackedModel");
  const auto d = static_cast<std::uint64_t>(model.d);
  const std::uint64_t total_bits = static_cast<std::uint64_t>(model.rows) * d;
  if (ber <= 0.0 || total_bits == 0) return 0;
  std::size_t flips = 0;
  std::uint64_t pos = geometric_gap(ber, rng) - 1;
  while (pos < total_bits) {
    const std::uint64_t j = pos % d;
    model.row(static_cast<std::int64_t>(pos / d))[j / 64] ^= 1ULL << (j % 64);
    ++flips;
    pos += geometric_gap(ber, rng);
  }
  return flips;
}

}  // namespace fhdnn::channel
