// Reliable-delivery layer: CRC-32 framing + ARQ retransmission (the coded,
// ACK/retransmit link the paper's CNN baseline *requires*, §3.5/§4.4).
//
// FHDnn transmits uncoded and absorbs corruption holographically; a CNN
// cannot — one flipped exponent bit destroys the model — so its uplink
// needs error detection and retransmission. This file makes that cost
// measurable instead of asserted: ReliableChannel wraps any Channel, splits
// the payload into frames, appends a CRC-32 per frame, retransmits frames
// whose received CRC mismatches (up to max_retries, with capped exponential
// backoff in *simulated* seconds), and delivers the last corrupted copy
// when retries are exhausted (residual-error delivery). Every
// retransmission is charged into TransportStats (retransmissions,
// backoff_seconds, residual_errors, bits_on_air), so benches can measure
// bytes-on-air and seconds-to-accuracy for CNN+ARQ vs FHDnn-uncoded
// (bench/fig8_arq_cost.cpp) rather than relying on the fixed
// coded_rate_bps constant of channel/lte.hpp.
//
// Determinism: attempt a of frame p draws from rng.fork("arq-p<p>-t<a>"),
// so outcomes depend only on the caller's stream, never on iteration
// interleaving. Error detection uses the real CRC-32 comparison (an
// undetected corruption needs a 2^-32 CRC collision) — not an oracle
// compare against the sent data.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/channel.hpp"

namespace fhdnn::channel {

/// How the sender schedules retransmissions.
enum class ArqMode {
  StopAndWait,      ///< one frame in flight; every frame waits for its ACK
  SelectiveRepeat,  ///< pipelined; only NAK'd frames pay a turnaround
};

struct ArqConfig {
  ArqMode mode = ArqMode::SelectiveRepeat;
  std::size_t packet_bits = 8192;  ///< frame payload bits (excl. 32-bit CRC)
  int max_retries = 8;             ///< retransmissions per frame before giving up
  /// Simulated ACK/NAK turnaround charged per frame attempt (StopAndWait)
  /// or per retransmission (SelectiveRepeat).
  double ack_rtt_seconds = 0.02;
  /// Capped exponential backoff before retransmission k (1-based):
  /// min(initial * factor^(k-1), max).
  double initial_backoff_seconds = 0.05;
  double backoff_factor = 2.0;
  double max_backoff_seconds = 2.0;
};

/// Backoff charged before the k-th retransmission of a frame (k >= 1).
double arq_backoff_seconds(const ArqConfig& config, int retry);

/// ARQ decorator over any Channel. Not a Channel subclass' "perfect" link:
/// the inner channel still corrupts every attempt; reliability comes from
/// detection + retransmission, and fails over to residual-error delivery.
class ReliableChannel final : public Channel {
 public:
  /// `inner` may be null (an error-free link: framing overhead only, no
  /// retransmissions) and must outlive the decorator.
  explicit ReliableChannel(const Channel* inner, ArqConfig config = {});

  TransportStats apply_scaled(std::vector<float>& payload, Rng& rng,
                              double error_scale) const override;
  std::string name() const override;

 private:
  const Channel* inner_;
  ArqConfig config_;
};

std::unique_ptr<Channel> make_reliable(const Channel* inner,
                                       ArqConfig config = {});

}  // namespace fhdnn::channel
