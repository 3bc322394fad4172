// AGC-style quantizer for HD model transmission (paper §3.5.2).
//
// Before uplink transmission each class hypervector is scaled so its largest
// magnitude hits the top of the B-bit signed integer range
// (G = (2^(B-1)-1) / max|c|), rounded to integers, transmitted, and scaled
// back down by the same G at the receiver. Bit errors therefore hit scaled
// integers, bounding the ratio damage a flipped bit can do to the
// similarity dot products.
//
// Both directions run as dispatched SIMD kernels (util/simd.hpp): a vector
// max|c| with the finite check, the scale-up rounded half away from zero
// (std::llround's rule, reproduced exactly as trunc plus a +-1 step) and
// clamped, and the scale-down as one double divide rounded to float. Every
// tier writes the same integers and floats as the scalar oracle, pinned by
// tests/test_hdc.cpp's rounding oracle at each tier.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace fhdnn::hdc {

/// One quantized vector: B-bit signed integers plus the gain used.
struct QuantizedVector {
  std::vector<std::int32_t> values;
  double gain = 1.0;   ///< scale-up factor G
  int bitwidth = 16;   ///< B
};

class Quantizer {
 public:
  /// bitwidth B in [2, 31]; values are stored in int32 but clamped to the
  /// signed B-bit range [-(2^(B-1)-1), 2^(B-1)-1].
  explicit Quantizer(int bitwidth);

  int bitwidth() const { return bitwidth_; }
  std::int32_t max_level() const { return max_level_; }

  /// Scale-up + round. An all-zero input gets gain 1 (nothing to amplify).
  QuantizedVector quantize(std::span<const float> values) const;
  /// quantize into q, reusing its storage.
  /// Aliasing: q holds integers, so it cannot overlap values.
  void quantize_into(std::span<const float> values, QuantizedVector& q) const;

  /// Scale-down (receiver side) into out, which holds q.values.size()
  /// floats.
  /// Aliasing: out holds floats, so it cannot overlap q.
  void dequantize_into(const QuantizedVector& q, std::span<float> out) const;

  /// Quantize each row of a (K, d) prototype matrix independently — each
  /// class hypervector gets its own gain, per the paper.
  std::vector<QuantizedVector> quantize_rows(const Tensor& prototypes) const;

  /// Rebuild a (K, d) matrix from per-row quantized vectors.
  Tensor dequantize_rows(const std::vector<QuantizedVector>& rows,
                         std::int64_t hd_dim) const;

 private:
  int bitwidth_;
  std::int32_t max_level_;
};

}  // namespace fhdnn::hdc
