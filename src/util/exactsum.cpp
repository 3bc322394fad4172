#include "util/exactsum.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fhdnn::util {

namespace {

constexpr std::size_t kDigits = ExactSumVector::kChunks - 1;

/// Carries one element's chunks: digits 0..7 into [0, 2^32), the rest
/// into the top chunk. The headroom invariant keeps each chunk plus its
/// incoming carry inside int64; the top chunk wraps beyond 2^319 quanta.
void carry_chunks(const std::int64_t* chunk, std::int64_t* out) {
  std::int64_t c = 0;
  for (std::size_t k = 0; k < kDigits; ++k) {
    const std::int64_t v = chunk[k] + c;
    out[k] = v & 0xFFFFFFFF;
    c = v >> 32;  // floor division: negative values borrow
  }
  out[kDigits] = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(chunk[kDigits]) +
      static_cast<std::uint64_t>(c));
}

/// The canonical 384-bit two's-complement limbs of one element's chunks.
void to_limbs(const std::int64_t* chunk, std::uint64_t* limbs) {
  std::int64_t digits[ExactSumVector::kChunks];
  carry_chunks(chunk, digits);
  for (std::size_t j = 0; j < kDigits / 2; ++j) {
    limbs[j] = static_cast<std::uint64_t>(digits[2 * j]) |
               static_cast<std::uint64_t>(digits[2 * j + 1]) << 32U;
  }
  limbs[4] = static_cast<std::uint64_t>(digits[kDigits]);
  limbs[5] = digits[kDigits] < 0 ? ~std::uint64_t{0} : 0;
}

/// Rounds one element's canonical limbs to the nearest float32, ties to
/// even.
float round_limbs(const std::uint64_t* elem) {
  constexpr std::size_t kLimbs = ExactSumVector::kLimbs;
  // Sign from the top bit; work on the magnitude.
  const bool negative = (elem[kLimbs - 1] >> 63) != 0;
  std::uint64_t mag[kLimbs];
  if (negative) {
    std::uint64_t carry = 1;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      mag[i] = ~elem[i] + carry;
      carry = (carry != 0 && mag[i] == 0) ? 1 : 0;
    }
  } else {
    for (std::size_t i = 0; i < kLimbs; ++i) mag[i] = elem[i];
  }
  // Most significant set bit, as a quantum (2^-149) bit position.
  int msb = -1;
  for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
    if (mag[i] != 0) {
      msb = i * 64 + 63 - std::countl_zero(mag[i]);
      break;
    }
  }
  std::uint32_t bits = 0;
  if (msb < 0) {
    bits = 0;  // exact zero rounds to +0.0f
  } else if (msb <= 23) {
    // mag < 2^24: mag quanta encode exactly as the raw bit pattern
    // (subnormals for mag < 2^23, smallest normals just above).
    bits = static_cast<std::uint32_t>(mag[0]);
  } else {
    // Extract the top 24 bits as the significand, then round to
    // nearest (ties to even) using guard and sticky bits.
    const int lo_bit = msb - 23;
    const int li = lo_bit / 64;
    const int off = lo_bit % 64;
    std::uint64_t window = mag[li] >> off;
    if (off != 0 && li + 1 < static_cast<int>(kLimbs)) {
      window |= mag[li + 1] << (64 - off);
    }
    std::uint32_t sig = static_cast<std::uint32_t>(window & 0xFFFFFFU);
    const int guard_bit = lo_bit - 1;
    const bool guard =
        ((mag[guard_bit / 64] >> (guard_bit % 64)) & 1ULL) != 0;
    bool sticky = false;
    const int gli = guard_bit / 64;
    const int goff = guard_bit % 64;
    if (goff > 0) sticky = (mag[gli] & ((1ULL << goff) - 1)) != 0;
    for (int i = 0; i < gli && !sticky; ++i) sticky = mag[i] != 0;
    int p = msb;
    if (guard && (sticky || (sig & 1U) != 0)) {
      ++sig;
      if (sig == (1U << 24)) {  // rounded up across a power of two
        sig >>= 1;
        ++p;
      }
    }
    const int exp = p - 22;  // biased: value = sig * 2^(p-23) quanta
    if (exp >= 255) {
      bits = 0x7F800000U;  // overflow -> infinity
    } else {
      bits = (static_cast<std::uint32_t>(exp) << 23) | (sig & 0x7FFFFFU);
    }
  }
  if (negative) bits |= 0x80000000U;
  return std::bit_cast<float>(bits);
}

}  // namespace

ExactSumVector::ExactSumVector(std::size_t n)
    : n_(n), chunks_(n * kChunks, 0) {}

void ExactSumVector::add(std::span<const float> values) {
  FHDNN_CHECK(values.size() == n_,
              "ExactSumVector::add size " << values.size() << " != " << n_);
  // All or nothing: scan before any chunk changes. A float is non-finite
  // iff its exponent field is all ones, iff |bits| + 2^23 reaches bit 31;
  // two floats per 64-bit word, and no carry crosses between the halves.
  std::uint64_t reach = 0;
  std::size_t i = 0;
  for (; i + 2 <= n_; i += 2) {
    std::uint64_t pair = 0;
    std::memcpy(&pair, values.data() + i, sizeof(pair));
    reach |= (pair & 0x7FFFFFFF7FFFFFFFULL) + 0x0080000000800000ULL;
  }
  if (i < n_) {
    reach |=
        (std::bit_cast<std::uint32_t>(values[i]) & 0x7FFFFFFFU) + 0x00800000U;
  }
  FHDNN_CHECK((reach & 0x8000000080000000ULL) == 0,
              "ExactSumVector::add non-finite input");
  if (pending_ >= kMaxPending) normalize();
  simd::kernels().exact_accumulate_f32(chunks_.data(), values.data(),
                                       static_cast<std::int64_t>(n_));
  ++pending_;
}

void ExactSumVector::add(const ExactSumVector& other) {
  FHDNN_CHECK(other.n_ == n_,
              "ExactSumVector::add(acc) size " << other.n_ << " != " << n_);
  // other's chunks count as its pending contributions plus its digits.
  if (pending_ + other.pending_ + 1 > kMaxPending) normalize();
  const std::int64_t* b = other.chunks_.data();
  std::int64_t* a = chunks_.data();
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    a[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(a[i]) +
                                     static_cast<std::uint64_t>(b[i]));
  }
  pending_ += other.pending_ + 1;
}

void ExactSumVector::normalize() {
  for (std::size_t e = 0; e < n_; ++e) {
    std::int64_t* chunk = chunks_.data() + e * kChunks;
    carry_chunks(chunk, chunk);
  }
  pending_ = 0;
}

void ExactSumVector::round_to(std::span<float> out) const {
  FHDNN_CHECK(out.size() == n_,
              "ExactSumVector::round_to size " << out.size() << " != " << n_);
  std::uint64_t limbs[kLimbs];
  for (std::size_t e = 0; e < n_; ++e) {
    to_limbs(chunks_.data() + e * kChunks, limbs);
    out[e] = round_limbs(limbs);
  }
}

void ExactSumVector::clear() {
  std::fill(chunks_.begin(), chunks_.end(), 0);
  pending_ = 0;
}

void ExactSumVector::save(SnapshotWriter& w) const {
  std::vector<std::uint64_t> limbs(n_ * kLimbs);
  for (std::size_t e = 0; e < n_; ++e) {
    to_limbs(chunks_.data() + e * kChunks, limbs.data() + e * kLimbs);
  }
  w.write_u64(n_);
  w.write_u64s(limbs);
}

void ExactSumVector::load(SnapshotReader& r) {
  const std::uint64_t n = r.read_u64();
  const std::size_t at = r.offset();
  const std::vector<std::uint64_t> limbs = r.read_u64s();
  const auto reject = [at](const std::string& what) {
    throw DecodeError(DecodeErrorKind::kSchema, at,
                      "exactsum snapshot: " + what);
  };
  // Divide, never multiply: a hostile n must not wrap into a match.
  if (limbs.size() % kLimbs != 0 || limbs.size() / kLimbs != n) {
    reject(std::to_string(limbs.size()) + " limbs for " + std::to_string(n) +
           " elements");
  }
  const std::size_t count = limbs.size() / kLimbs;
  std::vector<std::int64_t> chunks(count * kChunks);
  for (std::size_t e = 0; e < count; ++e) {
    const std::uint64_t* elem = limbs.data() + e * kLimbs;
    const std::uint64_t ext = (elem[4] >> 63) != 0 ? ~std::uint64_t{0} : 0;
    if (elem[5] != ext) {
      reject("element " + std::to_string(e) + " exceeds 2^319 quanta");
    }
    std::int64_t* chunk = chunks.data() + e * kChunks;
    for (std::size_t j = 0; j < kDigits / 2; ++j) {
      chunk[2 * j] = static_cast<std::int64_t>(elem[j] & 0xFFFFFFFFU);
      chunk[2 * j + 1] = static_cast<std::int64_t>(elem[j] >> 32U);
    }
    chunk[kDigits] = static_cast<std::int64_t>(elem[4]);
  }
  n_ = count;
  pending_ = 0;
  chunks_ = std::move(chunks);
}

}  // namespace fhdnn::util
