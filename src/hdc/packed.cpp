#include "hdc/packed.hpp"

#include <bit>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace fhdnn::hdc {

namespace {

/// Tie mask: bits at even in-word positions. Every word starts at an even
/// element index, so these are the even-index elements, whose ties
/// resolve to +1.
constexpr std::uint64_t kEvenPhaseTies = 0x5555555555555555ULL;

/// Bit-sliced vote counter: plane[p] holds bit p of the per-position vote
/// count, so adding one member word is a 64-wide ripple-carry increment.
/// `max_planes` = bit_width(total members) always absorbs the carry.
void add_vote_word(std::uint64_t* plane, int max_planes, std::uint64_t v) {
  std::uint64_t carry = v;
  for (int p = 0; p < max_planes && carry != 0ULL; ++p) {
    const std::uint64_t t = plane[p];
    plane[p] = t ^ carry;
    carry = t & carry;
  }
}

/// Majority word from vote-count planes: count > n/2 wins outright; a tie
/// (count == n/2, only possible for even n) resolves via kEvenPhaseTies.
/// The count-vs-threshold comparison runs bit-sliced from the MSB plane
/// down.
std::uint64_t majority_word(const std::uint64_t* plane, int planes,
                            std::size_t n) {
  const std::uint64_t threshold = n / 2;
  std::uint64_t gt = 0;
  std::uint64_t eq = ~0ULL;
  for (int p = planes - 1; p >= 0; --p) {
    if ((threshold >> p) & 1ULL) {
      eq &= plane[p];
    } else {
      gt |= eq & plane[p];
      eq &= ~plane[p];
    }
  }
  if (n % 2 == 0) gt |= eq & kEvenPhaseTies;
  return gt;
}

}  // namespace

PackedHV pack_hv(const Tensor& v) {
  const std::int64_t d = v.numel();
  FHDNN_CHECK(d > 0, "pack_hv of empty tensor");
  PackedHV out(d);
  simd::kernels().pack_signs(v.data().data(), out.words.data(), d);
  return out;
}

PackedModel pack_rows(const Tensor& m) {
  FHDNN_CHECK(m.ndim() == 2, "pack_rows expects (N, d), got "
                                 << shape_to_string(m.shape()));
  PackedModel out(m.dim(0), m.dim(1));
  const auto& k = simd::kernels();
  const float* src = m.data().data();
  for (std::int64_t r = 0; r < out.rows; ++r) {
    k.pack_signs(src + r * out.d, out.row(r).data(), out.d);
  }
  return out;
}

Tensor unpack_rows(const PackedModel& m) {
  FHDNN_CHECK(m.rows > 0 && m.d > 0, "unpack_rows of empty PackedModel");
  FHDNN_CHECK(static_cast<std::int64_t>(m.words.size()) ==
                  m.rows * m.words_per_row(),
              "PackedModel word storage inconsistent");
  Tensor out(Shape{m.rows, m.d});
  const auto& k = simd::kernels();
  float* dst = out.data().data();
  for (std::int64_t r = 0; r < m.rows; ++r) {
    k.unpack_signs(m.row(r).data(), dst + r * m.d, m.d);
  }
  return out;
}

PackedHV bundle_majority_packed(const std::vector<PackedHV>& vs) {
  FHDNN_CHECK(!vs.empty(), "bundle_majority_packed of nothing");
  const std::int64_t d = vs.front().d;
  for (const auto& v : vs) {
    FHDNN_CHECK(v.d == d, "bundle_majority_packed dim mismatch");
  }
  PackedHV out(d);
  const std::size_t n = vs.size();
  const int planes = std::bit_width(n);
  const std::int64_t nwords = words_for_bits(d);
  std::uint64_t plane[64];
  for (std::int64_t w = 0; w < nwords; ++w) {
    for (int p = 0; p < planes; ++p) plane[p] = 0;
    for (const auto& v : vs) {
      add_vote_word(plane, planes, v.words[static_cast<std::size_t>(w)]);
    }
    std::uint64_t r = majority_word(plane, planes, n);
    if (w == nwords - 1) r &= tail_mask(d);
    out.words[static_cast<std::size_t>(w)] = r;
  }
  return out;
}

}  // namespace fhdnn::hdc
