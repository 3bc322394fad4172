// Exact (error-free, associative) float32 summation (DESIGN.md §12).
//
// Floating-point addition is not associative, so a fan-in tree of plain
// `+` reductions gives a different result than a flat left-to-right sum —
// which would make hierarchical aggregation depend on tree shape and
// break the engine's bit-exactness contract. ExactSumVector sidesteps the
// problem instead of bounding it: every float32 is an integer multiple of
// 2^-149 (the subnormal quantum), so a wide fixed-point accumulator can
// represent ANY finite sum of float32 values exactly.
//
// Chunk layout (Neal's small superaccumulator, arXiv:1505.05571): each
// element's value, in units of 2^-149, is sum_k chunk[k] * 2^(32k) over
// kChunks = 9 int64 chunks, least significant first. A finite float32
// spans quantum bits [0, 277): its 24-bit significand m sits at bit
// shift <= 253, so it lands in chunk shift / 32 and the one above. One
// add is two branch-free signed adds of the halves of m << (shift % 32),
// each below 2^32 in magnitude (simd::Kernels::exact_accumulate_f32, run
// from the active SIMD tier).
//
// Headroom invariant. After normalize(), chunks 0..7 hold one 32-bit
// digit each, in [0, 2^32), and chunk 8 the signed rest. Between carry
// passes each chunk below the top moves by less than 2^32 per pending
// contribution — an add(values) is one, a merge is the other side's count
// plus one — so |chunk| < (pending + 1) * 2^32. normalize() runs the
// carries before the count passes kMaxPending, which keeps every chunk
// inside int64 with no per-add carry at all. The value is exact while it
// fits the top chunk's signed 64 bits, |sum| < 2^319 quanta: more than
// 2^42 adds of FLT_MAX (~2^277 quanta) away.
//
// Because chunk addition is integer addition, accumulation is exactly
// associative and commutative: any grouping of add() calls — flat, a
// fan-in-2 tree, fan-in-16, or merges of partial accumulators via
// add(const ExactSumVector&) — represents the same value, and round_to()
// performs the ONLY rounding step (single round-to-nearest-even back to
// float32). This is the primitive the hierarchical aggregation tree is
// pinned against.
//
// Canonical snapshot form. save() writes each element as the 384-bit
// two's-complement integer it holds (kLimbs = 6 uint64 limbs, little-
// endian): the carried digits packed two per limb, the top chunk sign-
// extended through limbs 4 and 5. The image depends only on the value, not
// on the grouping or pending carries that produced it, and is the format
// every earlier version wrote. load() accepts exactly the images whose top
// 64 bits sign-extend bit 319, the range the chunks can hold.
//
// Inputs must be finite; NaN/Inf have no fixed-point image. add(values)
// scans for them first and throws before touching any chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/simd.hpp"
#include "util/snapshot.hpp"

namespace fhdnn::util {

class ExactSumVector : public Snapshotable {
 public:
  /// Limbs per element in the snapshot image: 384-bit two's complement.
  static constexpr std::size_t kLimbs = 6;
  /// Chunks per element in memory: a 32-bit digit plus headroom each.
  static constexpr std::size_t kChunks = simd::kExactChunks;
  /// Pending contributions allowed between carry passes. The bound leaves
  /// room for one more merge of an operand at the bound, plus its digits.
  static constexpr std::uint64_t kMaxPending = std::uint64_t{1} << 30;
  static_assert((kMaxPending + 2) * (std::uint64_t{1} << 32) <
                    (std::uint64_t{1} << 63),
                "pending chunk magnitudes must stay inside int64");

  ExactSumVector() = default;
  explicit ExactSumVector(std::size_t n);

  std::size_t size() const { return n_; }

  /// Accumulate `values` element-wise (values.size() must equal size()).
  /// Error-free: the accumulator afterwards represents the exact real
  /// sum. All or nothing: a non-finite value throws before any element is
  /// added.
  void add(std::span<const float> values);

  /// Merge another accumulator of the same size (chunk-wise integer add).
  /// This is the fan-in-tree merge step, exact by construction.
  void add(const ExactSumVector& other);

  /// Round each element's exact sum to the nearest float32 (ties to
  /// even), writing into `out` (out.size() must equal size()). Values
  /// beyond float32 range become +/-inf. Does not modify the accumulator.
  void round_to(std::span<float> out) const;

  /// Reset all elements to zero, keeping the size.
  void clear();

  /// Snapshot the exact value in canonical limbs (see the header); a
  /// restored accumulator continues mid-aggregation with no rounding.
  /// load() throws DecodeError (kSchema) on an image it cannot hold.
  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  /// Runs every pending carry: digits back into [0, 2^32), pending_ = 0.
  void normalize();

  std::size_t n_ = 0;
  std::uint64_t pending_ = 0;
  // Element i occupies chunks_[i*kChunks .. i*kChunks+kChunks).
  std::vector<std::int64_t> chunks_;
};

}  // namespace fhdnn::util
