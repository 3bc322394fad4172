#include "hdc/quantizer.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace fhdnn::hdc {

Quantizer::Quantizer(int bitwidth) : bitwidth_(bitwidth) {
  FHDNN_CHECK(bitwidth >= 2 && bitwidth <= 31, "quantizer bitwidth " << bitwidth);
  max_level_ = static_cast<std::int32_t>((1U << (bitwidth - 1)) - 1U);
}

QuantizedVector Quantizer::quantize(std::span<const float> values) const {
  QuantizedVector q;
  quantize_into(values, q);
  return q;
}

void Quantizer::quantize_into(std::span<const float> values,
                              QuantizedVector& q) const {
  const auto& kern = simd::kernels();
  const auto n = static_cast<std::int64_t>(values.size());
  float max_abs = 0.0F;
  if (!kern.finite_max_abs_f32(values.data(), n, &max_abs)) {
    // Non-finite values must be rejected up front: an Inf would silently
    // absorb the gain (driving every other element to 0), and either NaN
    // or Inf reaching the rounding is undefined behavior. The error names
    // the first offender.
    for (const float v : values) {
      FHDNN_CHECK(std::isfinite(v), "quantize of non-finite value " << v);
    }
  }
  q.bitwidth = bitwidth_;
  q.gain = max_abs > 0.0F ? static_cast<double>(max_level_) / max_abs : 1.0;
  q.values.resize(values.size());
  // Round then clamp: the max element lands exactly on +-max_level.
  kern.agc_round_f32(values.data(), q.values.data(), n, q.gain, max_level_);
}

void Quantizer::dequantize_into(const QuantizedVector& q,
                                std::span<float> out) const {
  FHDNN_CHECK(q.gain > 0.0, "dequantize gain " << q.gain);
  FHDNN_CHECK(out.size() == q.values.size(),
              "dequantize_into " << q.values.size() << " values into "
                                 << out.size());
  simd::kernels().agc_scale_down_i32(
      q.values.data(), out.data(), static_cast<std::int64_t>(out.size()),
      q.gain);
}

std::vector<QuantizedVector> Quantizer::quantize_rows(
    const Tensor& prototypes) const {
  FHDNN_CHECK(prototypes.ndim() == 2,
              "quantize_rows expects (K, d), got "
                  << shape_to_string(prototypes.shape()));
  const std::int64_t k = prototypes.dim(0), d = prototypes.dim(1);
  std::vector<QuantizedVector> rows;
  rows.reserve(static_cast<std::size_t>(k));
  const auto data = prototypes.data();
  for (std::int64_t i = 0; i < k; ++i) {
    rows.push_back(quantize(data.subspan(static_cast<std::size_t>(i * d),
                                         static_cast<std::size_t>(d))));
  }
  return rows;
}

Tensor Quantizer::dequantize_rows(const std::vector<QuantizedVector>& rows,
                                  std::int64_t hd_dim) const {
  FHDNN_CHECK(!rows.empty(), "dequantize_rows with no rows");
  Tensor out(Shape{static_cast<std::int64_t>(rows.size()), hd_dim});
  const auto data = out.data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    dequantize_into(rows[i], data.subspan(i * static_cast<std::size_t>(hd_dim),
                                          static_cast<std::size_t>(hd_dim)));
  }
  return out;
}

}  // namespace fhdnn::hdc
