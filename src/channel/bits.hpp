// Bit-level utilities shared by the channel models.
#pragma once

#include <cstdint>
#include <vector>

#include "hdc/packed.hpp"
#include "hdc/quantizer.hpp"
#include "util/rng.hpp"

namespace fhdnn::channel {

/// Draw the gap (>= 1, always) to the next flipped bit for a BSC with flip
/// probability p. p is clamped to 1.0 from above (a deadline-scaled BER
/// may overshoot; p >= 1 means every bit flips), and p <= 0 is an error —
/// the flip_* callers return early for ber <= 0 before drawing.
std::uint64_t geometric_gap(double p, Rng& rng);

/// Flip each of the 32 bits of every float in `payload` independently with
/// probability `ber`. Returns the number of flips performed.
std::size_t flip_float_bits(std::vector<float>& payload, double ber, Rng& rng);

/// Flip bits within the B-bit two's-complement representation of each
/// quantized value with probability `ber` per bit; values are re-clamped to
/// the signed B-bit range (the receiver's integer parser cannot produce
/// out-of-range values). Returns the number of flips.
std::size_t flip_quantized_bits(hdc::QuantizedVector& q, double ber, Rng& rng);

/// Flip each sign bit of a packed model with probability `ber` (BSC over
/// the rows*d payload bits). The walk runs over the flat index r*d + j,
/// so the draws and flipped elements do not depend on the row-aligned
/// storage; tail bits stay zero. Returns the number of flips.
std::size_t flip_sign_bits(hdc::PackedModel& model, double ber, Rng& rng);

}  // namespace fhdnn::channel
