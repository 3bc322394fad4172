// Hierarchical (fan-in tree) aggregation of HD updates (DESIGN.md §12).
//
// In the AIoT deployment FHDnn targets, clients don't upload straight to
// the cloud: edge aggregators (gateways, base stations) bundle the HD
// prototypes of their attached devices and forward one combined update up
// a fan-in tree. The paper's key enabling fact is that HD bundling is
// associative, so tree aggregation can be EXACT: each edge aggregator
// accumulates its float32 parts in a util::ExactSumVector (error-free
// fixed point), parents absorb their children's accumulators, and the root
// rounds once, so any tree shape yields the flat sum's correctly-rounded
// result bit for bit.
//
// hierarchical_sum walks the tree depth-first with one accumulator per
// tree level, built once per call and cleared for each edge it stands in
// for; tests/test_properties.cpp pins tree == flat at fan-ins {2, 3, 16}.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace fhdnn::fl {

/// Sum `parts` through a fan-in tree of exact accumulators and round once:
/// bit-identical to flat exact summation for ANY fan_in >= 2. All parts
/// must share the first part's shape; parts must be non-empty.
Tensor hierarchical_sum(const std::vector<Tensor>& parts, std::size_t fan_in);

}  // namespace fhdnn::fl
