// Unreliable uplink channel models (paper §3.5).
//
// The FL simulator pushes every client's serialized model update through a
// Channel before aggregation. Three error models from the paper:
//   * AWGN "noisy aggregation" (§3.5.1) — uncoded analog transmission; zero-
//     mean Gaussian noise added directly to parameter values at a target
//     SNR;
//   * bit errors (§3.5.2) — a binary symmetric channel flipping bits of the
//     digital representation (IEEE-754 float32 words for CNNs, B-bit
//     integers for quantized HD models) with probability p_e each;
//   * packet loss (§3.5.3) — UDP-style transport; payload is split into
//     N_p-bit packets, each dropped i.i.d. with probability p_p; dropped
//     packets are zero-filled (no retransmission).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace fhdnn::util {
class ByteWriter;
class ByteReader;
}  // namespace fhdnn::util

namespace fhdnn::channel {

/// Statistics of one delivery — the single accounting struct shared by
/// Channel::apply (raw channel level) and Transport::transmit (payload
/// level). A channel fills the air-interface counters; a transport adds the
/// payload accounting on top; the ARQ decorator (channel/arq.hpp) adds the
/// reliability counters.
struct TransportStats {
  std::uint64_t payload_scalars = 0;   ///< model scalars in the payload
  std::uint64_t payload_bytes = 0;     ///< uplink payload charged to the client
  std::uint64_t bits_on_air = 0;       ///< channel-level bits transmitted
  std::uint64_t bit_flips = 0;         ///< corruption events (BSC)
  std::uint64_t packets_total = 0;     ///< frames sent (packet channels / ARQ)
  std::uint64_t packets_lost = 0;      ///< erasures (packet channels)
  std::uint64_t retransmissions = 0;   ///< ARQ: frames sent again after NAK
  std::uint64_t residual_errors = 0;   ///< ARQ: frames delivered corrupted
  double backoff_seconds = 0.0;        ///< ARQ: simulated backoff + ACK wait
  double noise_power = 0.0;            ///< AWGN only (empirical per-element)
};

/// TransportStats <-> bytes (util/bytes), one encoding for snapshots and
/// wire frames: all ten fields in declaration order, doubles as raw IEEE
/// bits, so accounting restored or received equals the in-process rule.
void put_transport_stats(util::ByteWriter& w, const TransportStats& s);
[[nodiscard]] TransportStats get_transport_stats(util::ByteReader& r);

/// A channel corrupts a float payload (one client's serialized model) in
/// place. Implementations must be deterministic given the Rng.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Corrupt `payload` at the channel's nominal error parameter:
  /// apply_scaled(payload, rng, 1.0).
  TransportStats apply(std::vector<float>& payload, Rng& rng) const {
    return apply_scaled(payload, rng, 1.0);
  }

  /// Fault-model hook: the channel's error parameter (BER, loss rate,
  /// noise power) scaled by `error_scale` — the per-client link-quality
  /// multiplier of fl::FaultModel. Channels without a tunable error knob
  /// ignore the scale.
  virtual TransportStats apply_scaled(std::vector<float>& payload, Rng& rng,
                                      double error_scale) const = 0;

  virtual std::string name() const = 0;
};

/// Error-free link (the broadcast/downlink assumption, and the baseline).
class PerfectChannel final : public Channel {
 public:
  TransportStats apply_scaled(std::vector<float>& payload, Rng& rng,
                              double error_scale) const override;
  std::string name() const override { return "perfect"; }
};

/// Additive white Gaussian noise at a fixed SNR (dB). The noise variance is
/// set from the *empirical* signal power of the payload:
///   sigma^2 = P / SNR_linear, P = ||payload||^2 / n   (paper Eq. 3).
class AwgnChannel final : public Channel {
 public:
  explicit AwgnChannel(double snr_db);
  TransportStats apply_scaled(std::vector<float>& payload, Rng& rng,
                              double error_scale) const override;
  std::string name() const override;

 private:
  double snr_db_;
  double snr_linear_;
};

/// Binary symmetric channel over the IEEE-754 float32 bit representation of
/// each payload element (paper Eq. 6-7). NaN/Inf results are kept as-is —
/// exactly the catastrophic behaviour the paper describes for CNN weights.
class BitErrorChannel final : public Channel {
 public:
  explicit BitErrorChannel(double bit_error_rate);
  TransportStats apply_scaled(std::vector<float>& payload, Rng& rng,
                              double error_scale) const override;
  std::string name() const override;

 private:
  double ber_;
};

/// UDP-style packet erasure: the float payload is serialized at 32 bits per
/// element and split into packets of `packet_bits`; each packet is dropped
/// independently with probability `loss_rate` and its scalars zero-filled.
class PacketLossChannel final : public Channel {
 public:
  PacketLossChannel(double loss_rate, std::size_t packet_bits = 8192);
  TransportStats apply_scaled(std::vector<float>& payload, Rng& rng,
                              double error_scale) const override;
  std::string name() const override;

 private:
  double loss_rate_;
  std::size_t packet_bits_;
};

/// Factory helpers.
std::unique_ptr<Channel> make_awgn(double snr_db);
std::unique_ptr<Channel> make_bit_error(double ber);
std::unique_ptr<Channel> make_packet_loss(double loss_rate,
                                          std::size_t packet_bits = 8192);

}  // namespace fhdnn::channel
