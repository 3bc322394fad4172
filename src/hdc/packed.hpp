// Bit-packed binary-HD backend (DESIGN.md §11).
//
// A bipolar hypervector (entries ±1) carries one bit of information per
// dimension, so the packed representation stores it as d sign bits in
// ceil(d/64) uint64 words: bit i set <=> element i is +1 (the library's
// sign(0) := +1 convention). On this representation the HD algebra
// collapses to word-wide integer ops:
//   * bind            -> complemented XOR (bit 1 encodes +1, so the
//                        product is +1 exactly when the bits agree: XNOR;
//                        plain XOR is bind only in the bit-encodes-sign
//                        convention)
//   * hamming         -> popcount(XOR)   (differing bits = differing signs)
//   * cosine          -> 1 - 2*hamming/d  (all bipolar vectors have norm
//                        sqrt(d), so cosine is a linear map of hamming)
//   * permute         -> word-level rotate
//   * majority bundle -> per-bit vote counting (bit-sliced adders)
// Every operation here is pinned bit-exact against the float/scalar path
// by tests/test_packed.cpp and tests/test_properties.cpp.
//
// Layout rules:
//   * PackedHV: d bits, little-endian within each word (bit i of word w is
//     element w*64 + i); unused tail bits of the last word are ZERO — all
//     kernels preserve this invariant so popcounts never see garbage.
//   * PackedModel: row-aligned — each of the `rows` hypervectors starts on
//     its own word boundary (words_per_row() words per row). It is also the
//     one-bit uplink's payload: channel/hd_uplink packs with pack_rows,
//     flips bits with channel::flip_sign_bits (which walks the flat index
//     r*d + j, so the layout never shows on the air) and unpacks with
//     unpack_rows.
//
// Tie rule: majority bundling over an even member count can tie. Ties are
// broken by *index parity* — element i resolves to +1 when i is even, -1
// when i is odd (see bundle_majority in hdc/ops.hpp, which follows the
// same rule). The rule is deterministic, needs no RNG state, and has a
// closed packed form: every word starts at an even index, so the ties of
// each word resolve through the alternating mask 0x5555....
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace fhdnn::hdc {

/// Words needed to hold `nbits` bits (64 per word).
constexpr std::int64_t words_for_bits(std::int64_t nbits) {
  return (nbits + 63) / 64;
}

/// Mask of the valid bits in the last word of an nbits-bit vector
/// (all-ones when nbits is a multiple of 64).
constexpr std::uint64_t tail_mask(std::int64_t nbits) {
  const std::int64_t rem = nbits % 64;
  return rem == 0 ? ~0ULL : (1ULL << rem) - 1ULL;
}

/// One packed bipolar hypervector: d sign bits, zeroed tail.
struct PackedHV {
  std::int64_t d = 0;
  std::vector<std::uint64_t> words;

  PackedHV() = default;
  explicit PackedHV(std::int64_t dim)
      : d(dim), words(static_cast<std::size_t>(words_for_bits(dim)), 0) {}

  /// Sign of element i as ±1 (bit set -> +1).
  float element(std::int64_t i) const {
    return (words[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1ULL
               ? 1.0F
               : -1.0F;
  }
};

/// A row-aligned stack of packed hypervectors (e.g. class prototypes or an
/// encoded query batch): row r occupies words [r*words_per_row(),
/// (r+1)*words_per_row()), each row with its own zeroed tail.
struct PackedModel {
  std::int64_t rows = 0;
  std::int64_t d = 0;
  std::vector<std::uint64_t> words;

  PackedModel() = default;
  PackedModel(std::int64_t num_rows, std::int64_t dim)
      : rows(num_rows),
        d(dim),
        words(static_cast<std::size_t>(num_rows * words_for_bits(dim)), 0) {}

  std::int64_t words_per_row() const { return words_for_bits(d); }

  std::span<std::uint64_t> row(std::int64_t r) {
    return {words.data() + r * words_per_row(),
            static_cast<std::size_t>(words_per_row())};
  }
  std::span<const std::uint64_t> row(std::int64_t r) const {
    return {words.data() + r * words_per_row(),
            static_cast<std::size_t>(words_per_row())};
  }
};

/// Pack a 1-D float hypervector: bit i = (v[i] >= 0), i.e. sign(0) := +1.
PackedHV pack_hv(const Tensor& v);

/// Unpack to a bipolar float hypervector (entries ±1).
Tensor unpack_hv(const PackedHV& v);

/// Pack each row of a (N, d) float matrix into a row-aligned PackedModel.
PackedModel pack_rows(const Tensor& m);

/// Unpack to a bipolar (N, d) float matrix.
Tensor unpack_rows(const PackedModel& m);

/// Packed bind via the word-XOR kernel (complemented to the bit-means-+1
/// convention). Equals pack(bind(unpack(a), unpack(b))) exactly. Requires
/// d > 0.
PackedHV xor_bind(const PackedHV& a, const PackedHV& b);

/// Packed cyclic rotation by k positions (k may be negative or exceed d);
/// matches hdc::permute: out element (i + k) mod d = in element i.
PackedHV rotate(const PackedHV& v, std::int64_t k);

/// Raw hamming distance: number of differing positions, in [0, d].
std::uint64_t hamming(const PackedHV& a, const PackedHV& b);

/// Normalized hamming distance (fraction of differing positions); equal to
/// hdc::hamming_distance on the unpacked vectors. Requires d > 0.
double hamming_norm(const PackedHV& a, const PackedHV& b);

/// Cosine similarity of the bipolar vectors: 1 - 2*hamming/d. Requires
/// d > 0.
double cosine(const PackedHV& a, const PackedHV& b);

/// Exact majority-vote bundle: output bit i is the majority of the input
/// bits i; a tie (even member count) resolves by index parity (+1 when i
/// is even). Matches hdc::bundle_majority on unpacked inputs bit-for-bit.
/// Internally counts votes in bit-sliced adder planes, so cost is
/// O(members * words * log(members)) with no per-bit loop.
PackedHV bundle_majority_packed(const std::vector<PackedHV>& vs);

}  // namespace fhdnn::hdc
