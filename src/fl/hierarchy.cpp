#include "fl/hierarchy.hpp"

#include "util/error.hpp"
#include "util/exactsum.hpp"

namespace fhdnn::fl {

namespace {

// Depth-first fan-in tree over parts[begin, end) into `acc`: leaves feed
// edge accumulators of up to `fan_in` parts each, and each internal level
// absorbs up to `fan_in` child accumulators. The first child reduces
// straight into `acc`; every later child reduces into pool[level], which
// is cleared for it and added into `acc`.
void tree_reduce(const std::vector<Tensor>& parts, std::size_t begin,
                 std::size_t end, std::size_t fan_in,
                 util::ExactSumVector& acc,
                 std::vector<util::ExactSumVector>& pool, std::size_t level) {
  const std::size_t n = end - begin;
  if (n <= fan_in) {
    for (std::size_t i = begin; i < end; ++i) acc.add(parts[i].data());
    return;
  }
  // Split into fan_in child subtrees of near-equal size (ceil division
  // keeps every child non-empty).
  const std::size_t per_child = (n + fan_in - 1) / fan_in;
  tree_reduce(parts, begin, begin + per_child, fan_in, acc, pool, level);
  util::ExactSumVector& child = pool[level];
  for (std::size_t b = begin + per_child; b < end; b += per_child) {
    const std::size_t e = b + per_child < end ? b + per_child : end;
    child.clear();
    tree_reduce(parts, b, e, fan_in, child, pool, level + 1);
    acc.add(child);
  }
}

}  // namespace

Tensor hierarchical_sum(const std::vector<Tensor>& parts, std::size_t fan_in) {
  FHDNN_CHECK(!parts.empty(), "hierarchical_sum: no parts");
  FHDNN_CHECK(fan_in >= 2, "hierarchical_sum: fan_in " << fan_in << " < 2");
  for (const Tensor& p : parts) {
    FHDNN_CHECK(p.shape() == parts.front().shape(),
                "hierarchical_sum: shape mismatch");
  }
  std::size_t levels = 0;
  for (std::size_t n = parts.size(); n > fan_in;
       n = (n + fan_in - 1) / fan_in) {
    ++levels;
  }
  util::ExactSumVector root(static_cast<std::size_t>(parts.front().numel()));
  std::vector<util::ExactSumVector> pool(levels, root);
  tree_reduce(parts, 0, parts.size(), fan_in, root, pool, 0);
  Tensor out(parts.front().shape());
  root.round_to(out.data());
  return out;
}

}  // namespace fhdnn::fl
