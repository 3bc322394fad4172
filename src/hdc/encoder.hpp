// Hyperdimensional random-projection encoder (paper §3.3).
//
// Embeds an n-dimensional feature vector z into d-dimensional HD space via
//   phi(z) = sign(Phi z)
// where the rows of Phi (d x n) are sampled uniformly from the unit sphere.
// The encoder also exposes:
//   * encode_linear — Phi z without the sign nonlinearity (used by the
//     holographic-reconstruction analysis, paper Eq. 5);
//   * reconstruct — the least-squares readout (n/d) Phi^T h, an unbiased
//     estimator of z from h = Phi z because E[Phi^T Phi] = (d/n) I for
//     unit-sphere rows. (The paper writes the 1/d averaging form; the n
//     factor is the deterministic scale making the estimator unbiased.)
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"
#include "tensor/view.hpp"
#include "util/rng.hpp"

namespace fhdnn::hdc {

class RandomProjectionEncoder {
 public:
  /// Build an encoder mapping n-dim features to d-dim hypervectors.
  /// Deterministic in (n, d, rng state) — all FHDnn clients construct an
  /// identical encoder from a shared seed, so Phi is never transmitted.
  RandomProjectionEncoder(std::int64_t feature_dim, std::int64_t hd_dim,
                          Rng& rng);

  std::int64_t feature_dim() const { return n_; }
  std::int64_t hd_dim() const { return d_; }

  /// sign(Phi z). Input (n) or batched (N, n); output matches: (d) or (N, d).
  /// Elements are exactly +1 or -1 (sign(0) := +1, per the paper).
  /// The `_into` forms write into a caller-owned buffer of matching numel
  /// and allocate nothing (1-d inputs are viewed as one-row matrices
  /// instead of reshaped copies — same bytes, same result).
  /// Aliasing: h must not overlap z (delegates to the matmul family, which
  /// throws on overlap).
  Tensor encode(const Tensor& z) const;
  void encode_into(ConstTensorView z, TensorView h) const;

  /// Phi z without the sign (same shapes as encode).
  /// Aliasing: h must not overlap z (throws on overlap).
  Tensor encode_linear(const Tensor& z) const;
  void encode_linear_into(ConstTensorView z, TensorView h) const;

  /// Least-squares readout (n/d) Phi^T h of a (d) or (N, d) hypervector;
  /// inverse of encode_linear in expectation.
  /// Aliasing: z must not overlap h (throws on overlap).
  Tensor reconstruct(const Tensor& h) const;
  void reconstruct_into(ConstTensorView h, TensorView z) const;

 private:
  std::int64_t n_;
  std::int64_t d_;
  Tensor phi_;  // (d, n), rows on the unit sphere
};

}  // namespace fhdnn::hdc
