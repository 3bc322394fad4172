// Record-based (ID-level) hyperdimensional encoder — the other standard HDC
// encoding family (the paper's encoder of choice is the random projection
// of §3.3; ID-level encoding is the classic alternative from the HDC
// literature it builds on, provided here for completeness and ablation).
//
// Each feature position i gets a random bipolar *ID* hypervector ID_i; the
// feature's value is quantized into one of Q levels, each with a *level*
// hypervector L_q built by progressive bit-flipping so that nearby levels
// are similar (L_0 random; L_{q+1} flips d/(2Q) fresh positions of L_q, so
// L_0 and L_{Q-1} are ~orthogonal). The encoding of a feature vector z is
//   h = sign( sum_i ID_i * L_{quantize(z_i)} ).
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fhdnn::hdc {

class IdLevelEncoder {
 public:
  /// n features -> d dims with Q quantization levels over [lo, hi].
  /// Values outside [lo, hi] clamp to the edge levels.
  IdLevelEncoder(std::int64_t feature_dim, std::int64_t hd_dim,
                 std::int64_t levels, float lo, float hi, Rng& rng);

  std::int64_t feature_dim() const { return n_; }
  std::int64_t hd_dim() const { return d_; }
  std::int64_t levels() const { return q_; }

  /// Quantize one value to a level index in [0, levels).
  std::int64_t quantize(float value) const;

  /// Encode (n) or (N, n) features to bipolar hypervectors (d) / (N, d).
  Tensor encode(const Tensor& z) const;

 private:
  std::int64_t n_;
  std::int64_t d_;
  std::int64_t q_;
  float lo_;
  float hi_;
  Tensor ids_;     // (n, d) bipolar
  Tensor levels_;  // (Q, d) bipolar, progressively flipped
};

}  // namespace fhdnn::hdc
