#include "fl/hierarchy.hpp"

#include <bit>
#include <span>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace fhdnn::fl {

PackedVoteAccumulator::PackedVoteAccumulator(std::int64_t rows, std::int64_t d)
    : rows_(rows),
      d_(d),
      total_words_(static_cast<std::size_t>(rows * hdc::words_for_bits(d))) {
  FHDNN_CHECK(rows > 0 && d > 0,
              "PackedVoteAccumulator geometry " << rows << "x" << d);
}

void PackedVoteAccumulator::add(const hdc::PackedModel& m) {
  FHDNN_CHECK(m.rows == rows_ && m.d == d_,
              "vote add: model " << m.rows << "x" << m.d << " != accumulator "
                                 << rows_ << "x" << d_);
  // Ripple-carry increment of each word position's vote count by the
  // model's bit. One more member can carry at most into plane
  // bit_width(members_ + 1) - 1.
  const int max_planes =
      std::bit_width(static_cast<unsigned long long>(members_ + 1));
  while (planes_.size() < static_cast<std::size_t>(max_planes)) {
    planes_.emplace_back(total_words_, 0ULL);
  }
  for (std::size_t w = 0; w < total_words_; ++w) {
    std::uint64_t carry = m.words[w];
    for (int p = 0; p < max_planes && carry != 0ULL; ++p) {
      const std::uint64_t t = planes_[p][w];
      planes_[p][w] = t ^ carry;
      carry = t & carry;
    }
  }
  ++members_;
}

void PackedVoteAccumulator::merge(const PackedVoteAccumulator& other) {
  FHDNN_CHECK(other.rows_ == rows_ && other.d_ == d_,
              "vote merge: geometry mismatch");
  const int max_planes = std::bit_width(
      static_cast<unsigned long long>(members_ + other.members_));
  while (planes_.size() < static_cast<std::size_t>(max_planes)) {
    planes_.emplace_back(total_words_, 0ULL);
  }
  // Plane-wise full adder: counts are integers, so this merge is exact
  // and associative — the tree shape cannot change the totals.
  std::vector<std::uint64_t> carry(total_words_, 0ULL);
  for (int p = 0; p < max_planes; ++p) {
    const bool other_has = p < static_cast<int>(other.planes_.size());
    for (std::size_t w = 0; w < total_words_; ++w) {
      const std::uint64_t a = planes_[p][w];
      const std::uint64_t b = other_has ? other.planes_[p][w] : 0ULL;
      const std::uint64_t c = carry[w];
      planes_[p][w] = a ^ b ^ c;
      carry[w] = (a & b) | (c & (a ^ b));
    }
  }
  members_ += other.members_;
}

hdc::PackedModel PackedVoteAccumulator::finalize() const {
  FHDNN_CHECK(members_ > 0, "finalize on empty vote accumulator");
  const int planes = static_cast<int>(planes_.size());
  FHDNN_CHECK(planes <= 64, "vote plane overflow");
  hdc::PackedModel out(rows_, d_);
  const std::int64_t wpr = out.words_per_row();
  const std::uint64_t last_mask = hdc::tail_mask(d_);
  std::uint64_t column[64];
  for (std::int64_t r = 0; r < rows_; ++r) {
    // Every word starts at an even in-row bit offset, so the tie phase of
    // the whole row is the parity of its flat start index r*d (matches
    // majority_aggregate_packed).
    const std::uint64_t tie =
        ((static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(d_)) %
         2) == 0
            ? hdc::detail::kEvenPhaseTies
            : ~hdc::detail::kEvenPhaseTies;
    for (std::int64_t w = 0; w < wpr; ++w) {
      const std::size_t pos = static_cast<std::size_t>(r * wpr + w);
      for (int p = 0; p < planes; ++p) column[p] = planes_[p][pos];
      std::uint64_t word =
          hdc::detail::majority_word(column, planes, members_, tie);
      if (w == wpr - 1) word &= last_mask;
      out.words[pos] = word;
    }
  }
  return out;
}

void PackedVoteAccumulator::clear() {
  members_ = 0;
  for (auto& plane : planes_) {
    for (auto& word : plane) word = 0ULL;
  }
}

namespace {

// Depth-first fan-in tree over [begin, end) into `acc`: leaves feed edge
// accumulators of up to `fan_in` children each, and each internal level
// merges up to `fan_in` child accumulators. The first child reduces
// straight into `acc`; every later child reduces into pool[level], which
// is cleared for it and merged into `acc`, so the whole tree runs on
// O(depth) accumulators built once per call. Acc must provide leaf-add
// via `add_leaf`, `merge` and `clear`.
template <typename Acc, typename Leaf>
void tree_reduce(const std::vector<Leaf>& leaves, std::size_t begin,
                 std::size_t end, std::size_t fan_in, Acc& acc,
                 std::vector<Acc>& pool, std::size_t level) {
  const std::size_t n = end - begin;
  if (n <= fan_in) {
    for (std::size_t i = begin; i < end; ++i) acc.add_leaf(leaves[i]);
    return;
  }
  // Split into fan_in child subtrees of near-equal size (ceil division
  // keeps every child non-empty).
  const std::size_t per_child = (n + fan_in - 1) / fan_in;
  tree_reduce(leaves, begin, begin + per_child, fan_in, acc, pool, level);
  Acc& child = pool[level];
  for (std::size_t b = begin + per_child; b < end; b += per_child) {
    const std::size_t e = b + per_child < end ? b + per_child : end;
    child.clear();
    tree_reduce(leaves, b, e, fan_in, child, pool, level + 1);
    acc.merge(child);
  }
}

/// Reduces every leaf into one accumulator made by `make` (empty, shaped
/// like the first leaf), with one scratch accumulator per tree level.
template <typename Acc, typename Leaf>
Acc tree_sum(const std::vector<Leaf>& leaves, std::size_t fan_in,
             Acc (*make)(const Leaf&)) {
  std::size_t levels = 0;
  for (std::size_t n = leaves.size(); n > fan_in;
       n = (n + fan_in - 1) / fan_in) {
    ++levels;
  }
  Acc root = make(leaves.front());
  std::vector<Acc> pool(levels, root);
  tree_reduce(leaves, 0, leaves.size(), fan_in, root, pool, 0);
  return root;
}

// Adapters giving ExactSumVector / PackedVoteAccumulator the uniform
// leaf-add interface tree_reduce expects.
struct SumNode {
  util::ExactSumVector acc;
  void add_leaf(const Tensor& t) { acc.add(t.data()); }
  void merge(const SumNode& other) { acc.add(other.acc); }
  void clear() { acc.clear(); }
};

struct VoteNode {
  PackedVoteAccumulator acc;
  void add_leaf(const hdc::PackedModel& m) { acc.add(m); }
  void merge(const VoteNode& other) { acc.merge(other.acc); }
  void clear() { acc.clear(); }
};

SumNode make_sum_node(const Tensor& t) {
  return {util::ExactSumVector(static_cast<std::size_t>(t.numel()))};
}

VoteNode make_vote_node(const hdc::PackedModel& m) {
  return {PackedVoteAccumulator(m.rows, m.d)};
}

}  // namespace

Tensor hierarchical_sum(const std::vector<Tensor>& parts, std::size_t fan_in) {
  FHDNN_CHECK(!parts.empty(), "hierarchical_sum: no parts");
  FHDNN_CHECK(fan_in >= 2, "hierarchical_sum: fan_in " << fan_in << " < 2");
  for (const Tensor& p : parts) {
    FHDNN_CHECK(p.shape() == parts.front().shape(),
                "hierarchical_sum: shape mismatch");
  }
  const SumNode root = tree_sum(parts, fan_in, &make_sum_node);
  Tensor out(parts.front().shape());
  root.acc.round_to(out.data());
  return out;
}

void PackedVoteAccumulator::save(util::SnapshotWriter& w) const {
  w.write_i64(rows_);
  w.write_i64(d_);
  w.write_u64(total_words_);
  w.write_u64(members_);
  w.write_u64(planes_.size());
  for (const auto& plane : planes_) {
    w.write_u64s(plane);
  }
}

void PackedVoteAccumulator::load(util::SnapshotReader& r) {
  const auto reject = [&r](const std::string& what) {
    throw util::DecodeError(util::DecodeErrorKind::kSchema, r.offset(),
                            "vote snapshot: " + what);
  };
  const std::int64_t rows = r.read_i64();
  const std::int64_t d = r.read_i64();
  if (rows <= 0 || d <= 0) {
    reject("geometry " + std::to_string(rows) + "x" + std::to_string(d));
  }
  // words_for_bits(d) without the d + 63 that could overflow, and the
  // product checked by division so no geometry wraps into a match.
  const auto words_per_row = static_cast<std::uint64_t>(d / 64 + (d % 64 != 0));
  const std::uint64_t total_words = r.read_u64();
  if (total_words % words_per_row != 0 ||
      total_words / words_per_row != static_cast<std::uint64_t>(rows)) {
    reject(std::to_string(total_words) + " words for " + std::to_string(rows) +
           "x" + std::to_string(d));
  }
  const std::uint64_t members = r.read_u64();
  const std::uint64_t n_planes = r.read_u64();
  if (n_planes > 64 ||
      static_cast<std::uint64_t>(std::bit_width(members)) > n_planes) {
    reject(std::to_string(n_planes) + " planes for " +
           std::to_string(members) + " members");
  }
  std::vector<std::vector<std::uint64_t>> planes(n_planes);
  for (auto& plane : planes) {
    plane = r.read_u64s();
    if (plane.size() != total_words) {
      reject("plane of " + std::to_string(plane.size()) +
             " words, expected " + std::to_string(total_words));
    }
  }
  rows_ = rows;
  d_ = d;
  total_words_ = static_cast<std::size_t>(total_words);
  members_ = static_cast<std::size_t>(members);
  planes_ = std::move(planes);
}

hdc::PackedModel hierarchical_majority(
    const std::vector<hdc::PackedModel>& models, std::size_t fan_in) {
  FHDNN_CHECK(!models.empty(), "hierarchical_majority: no models");
  FHDNN_CHECK(fan_in >= 2, "hierarchical_majority: fan_in " << fan_in << " < 2");
  for (const hdc::PackedModel& m : models) {
    FHDNN_CHECK(m.rows == models.front().rows && m.d == models.front().d,
                "hierarchical_majority: geometry mismatch");
  }
  const VoteNode root = tree_sum(models, fan_in, &make_vote_node);
  return root.acc.finalize();
}

}  // namespace fhdnn::fl
