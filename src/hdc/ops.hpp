// Classic hyperdimensional algebra: bind, bundle, permute, and the
// similarity metrics they rely on (Kanerva 2009, the paper's ref. [11]).
//
// These operate on bipolar hypervectors (entries in {-1, +1}) or general
// real hypervectors:
//   * bind (elementwise multiply)  — associates two hypervectors; for
//     bipolar inputs it is its own inverse and distributes over bundling;
//   * bundle (elementwise sum, optionally sign-thresholded) — superposes a
//     set into one vector similar to each member;
//   * permute (cyclic rotation) — encodes sequence position; preserves
//     distances and is invertible.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fhdnn::hdc {

/// Random bipolar hypervector of dimension d (entries ±1, fair coin).
Tensor random_bipolar(std::int64_t d, Rng& rng);

/// Elementwise product. For bipolar a, b: bind(bind(a,b), b) == a.
Tensor bind(const Tensor& a, const Tensor& b);

/// Elementwise sum of a set of equal-shaped hypervectors.
Tensor bundle(const std::vector<Tensor>& vs);

/// Majority-vote bundle used by binary HD models: elementwise sign of
/// bundle(vs), with a zero sum (a tie, only possible for an even member
/// count) broken by *index parity* — element i resolves to +1 when i is
/// even and -1 when i is odd. A fixed ties-to-+1 rule would push every
/// tied element the same way and bias even-count aggregates toward +1;
/// the parity rule is still deterministic (bit-reproducible, no RNG
/// state) but alternates the tie direction so the net bias cancels. The
/// packed backend reproduces the same rule exactly
/// (hdc::bundle_majority_packed).
Tensor bundle_majority(const std::vector<Tensor>& vs);

/// Elementwise sign with sign(0) := +1 (the library-wide convention).
Tensor sign(const Tensor& v);

}  // namespace fhdnn::hdc
