// The HD model's uplink transmission pipeline (paper §3.5.2).
//
// CNN updates go through a Channel as raw float32. HD prototype matrices
// instead take the AGC path for digital channels: each class hypervector is
// quantized to B-bit integers with its own gain (hdc::Quantizer), bit errors
// hit the integer representation, and the receiver scales back down. For
// analog (AWGN) and erasure (packet-loss) channels the corruption applies to
// the real-valued representation as in the paper.
#pragma once

#include <cstdint>
#include <string>

#include "channel/channel.hpp"
#include "tensor/tensor.hpp"

namespace fhdnn::channel {

/// How an HD prototype matrix is corrupted on the uplink.
enum class HdUplinkMode {
  Perfect,     ///< error-free
  Awgn,        ///< analog uncoded, Gaussian noise at `snr_db`
  BitErrors,   ///< BSC at `ber` over B-bit AGC-quantized integers
  PacketLoss,  ///< packet erasures at `loss_rate`, zero-filled
};

struct HdUplinkConfig {
  HdUplinkMode mode = HdUplinkMode::Perfect;
  double snr_db = 25.0;
  double ber = 0.0;
  double loss_rate = 0.0;
  int quantizer_bits = 16;       ///< B for the AGC path
  bool use_quantizer = true;     ///< ablation switch: false = raw float bits
  /// Ship only the sign pattern of the prototypes (1 bit/dimension — 32x
  /// smaller than float32). Applies to the digital modes (Perfect,
  /// BitErrors); takes precedence over the AGC quantizer. The sign rows
  /// ride an hdc::PackedModel (channel::flip_sign_bits for bit errors), so
  /// the receiver sees a bipolar model.
  bool binary_transport = false;
  std::size_t packet_bits = 8192;
};

/// Corrupt `prototypes` (K x d) in place according to `config`.
/// Returns transmission statistics in the uniform channel::TransportStats
/// (bits_on_air reflects the B-bit integer encoding for digital modes with
/// quantization, 32-bit floats otherwise). `error_scale` is the fault
/// model's per-client link-quality multiplier: BER/loss rates scale up by
/// it, analog SNR scales down (1.0 = the configured link, bit-identical to
/// the unscaled call). The AGC path throws on a non-finite scalar, and
/// then leaves the rows before it already received.
TransportStats transmit_hd_model(Tensor& prototypes,
                                 const HdUplinkConfig& config, Rng& rng,
                                 double error_scale = 1.0);

/// Bits one model scalar costs on the uplink under `config` — the single
/// accounting rule shared by transmit_hd_model's statistics and closed-form
/// update-size reporting: 1 for binary-sign transport, B for the AGC
/// quantizer (digital modes), 32 for raw-float and analog paths.
std::uint64_t hd_bits_per_scalar(const HdUplinkConfig& config);

/// Closed-form uplink payload of one delivered model of `scalars` scalars,
/// in bytes: ceil(scalars * hd_bits_per_scalar / 8).
std::uint64_t hd_update_bytes(const HdUplinkConfig& config,
                              std::uint64_t scalars);

/// Human-readable description, for experiment logs.
std::string describe(const HdUplinkConfig& config);

}  // namespace fhdnn::channel
