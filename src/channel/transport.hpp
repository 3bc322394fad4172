// Transport seam of the federated round engine (fl/engine.hpp).
//
// A Transport owns everything between a client's trained update and the
// server's aggregator: serialization to the on-air representation, the
// unreliable channel, deserialization, and the *uniform* byte/bit
// accounting both trainers report through fl::RoundMetrics. Two payload
// shapes exist today:
//   * FloatStateTransport — the CNN float-state path (paper §3.5): an
//     optional Bernoulli update-subsampling mask against the round's
//     broadcast snapshot, then an optional channel::Channel over the raw
//     float32 words;
//   * HdModelTransport — the HD prototype path: AGC quantization, 1-bit
//     binary-sign transport, or analog transmission via
//     channel::transmit_hd_model (hd_uplink.hpp).
//
// Implementations are deterministic given the caller-provided RNG streams
// and thread-safe across concurrent clients: transmit() is const, keeps no
// per-call state, and draws randomness only from its Rng arguments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "channel/hd_uplink.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace fhdnn::channel {

/// Serializes one client update, pushes it through the (possibly
/// unreliable) uplink in place, and accounts for the traffic in the uniform
/// channel::TransportStats (channel.hpp) — the same struct Channel::apply
/// fills, so ARQ/reliability counters exist in exactly one place.
template <typename Update>
class Transport {
 public:
  virtual ~Transport() = default;

  /// Corrupt `update` in place as the uplink would and return the
  /// delivery's accounting. `client_rng` continues the client's own stream
  /// (its state reflects local training); `round_rng` is the round stream,
  /// for round-scoped forks named by `client`. Called concurrently for
  /// distinct clients.
  virtual TransportStats transmit(Update& update, std::size_t client,
                                  Rng& client_rng,
                                  const Rng& round_rng) const = 0;

  /// Closed-form uplink payload of one full delivered update of `scalars`
  /// model scalars, in bytes — the same accounting rule transmit() charges
  /// (before any per-delivery subsampling).
  virtual std::uint64_t update_bytes(std::uint64_t scalars) const = 0;

  /// Human-readable description, for experiment logs.
  virtual std::string name() const = 0;
};

/// CNN float-state path. With update_fraction < 1, each delivery draws a
/// fresh Bernoulli mask from client_rng.fork("mask") and untransmitted
/// scalars fall back to the round's broadcast snapshot (set_broadcast);
/// payload accounting charges the scalars the mask actually transmitted.
/// The channel (client_rng.fork("channel")) may be null for a perfect
/// link, which still costs 32 bits per transmitted scalar on the air.
class FloatStateTransport final : public Transport<std::vector<float>> {
 public:
  /// `uplink` may be null (perfect link) and must outlive the transport.
  FloatStateTransport(double update_fraction, const Channel* uplink);

  /// Install the broadcast reference the subsampling mask falls back to.
  /// Required before transmitting whenever update_fraction < 1; the vector
  /// must outlive the round's transmit calls.
  void set_broadcast(const std::vector<float>* broadcast) {
    broadcast_ = broadcast;
  }

  /// Install the fault model's per-client link-quality multipliers (indexed
  /// by client id; may be null or shorter than the client range — missing
  /// entries mean 1.0). The vector must outlive the transmit calls.
  void set_error_scales(const std::vector<double>* scales) {
    error_scales_ = scales;
  }

  TransportStats transmit(std::vector<float>& update, std::size_t client,
                          Rng& client_rng, const Rng& round_rng) const override;
  std::uint64_t update_bytes(std::uint64_t scalars) const override {
    return scalars * sizeof(float);
  }
  std::string name() const override;

 private:
  double update_fraction_;
  const Channel* uplink_;
  const std::vector<float>* broadcast_ = nullptr;
  const std::vector<double>* error_scales_ = nullptr;
};

/// HD prototype path: the (K, d) matrix goes through transmit_hd_model
/// under the round-scoped channel fork round_rng.fork("channel-<client>").
/// Payload accounting uses hd_update_bytes — the one rule shared with
/// closed-form update-size reporting (binary sign = 1 bit/scalar, AGC = B
/// bits, raw float = 32).
class HdModelTransport final : public Transport<Tensor> {
 public:
  explicit HdModelTransport(HdUplinkConfig config) : config_(config) {}

  /// Fault model's per-client link multipliers; see
  /// FloatStateTransport::set_error_scales.
  void set_error_scales(const std::vector<double>* scales) {
    error_scales_ = scales;
  }

  TransportStats transmit(Tensor& update, std::size_t client, Rng& client_rng,
                          const Rng& round_rng) const override;
  std::uint64_t update_bytes(std::uint64_t scalars) const override {
    return hd_update_bytes(config_, scalars);
  }
  std::string name() const override { return describe(config_); }

 private:
  HdUplinkConfig config_;
  const std::vector<double>* error_scales_ = nullptr;
};

}  // namespace fhdnn::channel
