// Hierarchical (fan-in tree) aggregation of HD updates (DESIGN.md §12).
//
// In the AIoT deployment FHDnn targets, clients don't upload straight to
// the cloud: edge aggregators (gateways, base stations) bundle the HD
// prototypes of their attached devices and forward one combined update up
// a fan-in tree. The paper's key enabling fact is that HD bundling is
// associative, so tree aggregation can be EXACT — the root result is
// bit-identical to flat (single-server) aggregation regardless of tree
// shape. This header provides the two exact primitives:
//
//   * float path — ExactSumVector per edge aggregator: float32 sums are
//     accumulated in error-free fixed point and rounded once at the root,
//     so any grouping yields the identical correctly-rounded result.
//   * packed binary path — PackedVoteAccumulator: edge aggregators forward
//     bit-sliced per-position VOTE COUNTS (integer addition — associative),
//     and the majority threshold + index-parity tie rule run once at the
//     root via the same detail kernels as `majority_aggregate_packed`, so
//     the tree result is pinned bit-exact against the flat kernel.
//
// The `hierarchical_*` drivers walk the tree depth-first on O(depth)
// accumulators, built once per call and cleared for each edge they stand
// in for; tests/test_properties.cpp pins tree == flat for both paths at
// fan-ins {2, 3, 16}.
#pragma once

#include <cstddef>
#include <vector>

#include "hdc/packed.hpp"
#include "tensor/tensor.hpp"
#include "util/exactsum.hpp"
#include "util/snapshot.hpp"

namespace fhdnn::fl {

/// An edge aggregator for packed binary-HD models: accumulates per-bit
/// vote counts in bit-sliced planes. Votes are integers, so merging
/// accumulators (a parent absorbing an edge) is exact and associative;
/// finalize() applies the majority threshold + tie rule exactly once.
class PackedVoteAccumulator : public util::Snapshotable {
 public:
  PackedVoteAccumulator() = default;
  PackedVoteAccumulator(std::int64_t rows, std::int64_t d);

  std::int64_t rows() const { return rows_; }
  std::int64_t d() const { return d_; }

  /// Number of models voted in so far (via add() and merge()).
  std::size_t members() const { return members_; }

  /// Count one model's bits into the vote planes (one client's upload
  /// arriving at this edge aggregator).
  void add(const hdc::PackedModel& m);

  /// Absorb another accumulator's vote counts (a child edge aggregator
  /// forwarding its bundle up the tree). Plane-wise full adder — exact.
  void merge(const PackedVoteAccumulator& other);

  /// Apply the majority threshold with the index-parity tie rule (flat
  /// index r*d + j, ties -> +1 on even). Bit-identical to
  /// `majority_aggregate_packed` over the same set of models, however the
  /// adds and merges were grouped. Requires members() > 0.
  hdc::PackedModel finalize() const;

  /// Reset to an empty accumulator, keeping the (rows, d) geometry.
  void clear();

  /// Snapshot geometry, member count, and raw vote planes; a restored
  /// accumulator finalizes to the identical packed model. load() throws
  /// DecodeError (kSchema), leaving the accumulator as it was, unless
  /// rows and d are positive, every plane holds rows * words_for_bits(d)
  /// words, and there are at most 64 planes, enough to count members().
  void save(util::SnapshotWriter& w) const override;
  void load(util::SnapshotReader& r) override;

 private:
  std::int64_t rows_ = 0;
  std::int64_t d_ = 0;
  std::size_t total_words_ = 0;
  std::size_t members_ = 0;
  // planes_[p][w] holds bit p of the vote count at word position w; the
  // plane count grows with bit_width(members_).
  std::vector<std::vector<std::uint64_t>> planes_;
};

/// Sum `parts` through a fan-in tree of exact accumulators and round once:
/// bit-identical to flat exact summation for ANY fan_in >= 2. All parts
/// must share the first part's shape; parts must be non-empty.
Tensor hierarchical_sum(const std::vector<Tensor>& parts, std::size_t fan_in);

/// Majority-bundle packed models through a fan-in tree of vote
/// accumulators; bit-identical to `majority_aggregate_packed(models)` for
/// ANY fan_in >= 2. All models must share the first model's geometry.
hdc::PackedModel hierarchical_majority(const std::vector<hdc::PackedModel>& models,
                                       std::size_t fan_in);

}  // namespace fhdnn::fl
