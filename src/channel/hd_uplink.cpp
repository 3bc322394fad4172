#include "channel/hd_uplink.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "channel/bits.hpp"
#include "hdc/packed.hpp"
#include "hdc/quantizer.hpp"
#include "util/error.hpp"

namespace fhdnn::channel {

namespace {

/// Route the float-valued matrix through a float channel.
TransportStats apply_float_channel(Tensor& prototypes, const Channel& ch,
                                   Rng& rng, double error_scale) {
  std::vector<float> payload(prototypes.data().begin(),
                             prototypes.data().end());
  const TransportStats s = ch.apply_scaled(payload, rng, error_scale);
  auto dst = prototypes.data();
  for (std::size_t i = 0; i < payload.size(); ++i) dst[i] = payload[i];
  TransportStats out;
  out.bits_on_air = s.bits_on_air;
  out.bit_flips = s.bit_flips;
  out.packets_lost = s.packets_lost;
  out.packets_total = s.packets_total;
  return out;
}

}  // namespace

TransportStats transmit_hd_model(Tensor& prototypes,
                                 const HdUplinkConfig& config, Rng& rng,
                                 double error_scale) {
  FHDNN_CHECK(prototypes.ndim() == 2,
              "transmit_hd_model expects (K, d), got "
                  << shape_to_string(prototypes.shape()));
  FHDNN_CHECK(error_scale > 0.0, "hd uplink error_scale " << error_scale);
  switch (config.mode) {
    case HdUplinkMode::Perfect: {
      TransportStats s;
      if (config.binary_transport) {
        prototypes = hdc::unpack_rows(hdc::pack_rows(prototypes));
      }
      s.bits_on_air = static_cast<std::size_t>(prototypes.numel()) *
                      static_cast<std::size_t>(hd_bits_per_scalar(config));
      return s;
    }
    case HdUplinkMode::Awgn: {
      const AwgnChannel ch(config.snr_db);
      return apply_float_channel(prototypes, ch, rng, error_scale);
    }
    case HdUplinkMode::PacketLoss: {
      const PacketLossChannel ch(config.loss_rate, config.packet_bits);
      return apply_float_channel(prototypes, ch, rng, error_scale);
    }
    case HdUplinkMode::BitErrors: {
      const double ber = std::min(1.0, config.ber * error_scale);
      if (config.binary_transport) {
        auto packed = hdc::pack_rows(prototypes);
        TransportStats s;
        s.bits_on_air = static_cast<std::size_t>(prototypes.numel());
        s.bit_flips = flip_sign_bits(packed, ber, rng);
        prototypes = hdc::unpack_rows(packed);
        return s;
      }
      if (!config.use_quantizer) {
        // Ablation: raw IEEE-754 transmission, same as the CNN path.
        const BitErrorChannel ch(config.ber);
        return apply_float_channel(prototypes, ch, rng, error_scale);
      }
      // One class hypervector at a time, each with its own gain, through
      // one reused integer row; the flips draw from rng in row order, as
      // over the whole matrix, and the received row overwrites the sent one.
      const hdc::Quantizer quant(config.quantizer_bits);
      const auto d = static_cast<std::size_t>(prototypes.dim(1));
      hdc::QuantizedVector row;
      TransportStats s;
      for (std::int64_t r = 0; r < prototypes.dim(0); ++r) {
        const auto values =
            prototypes.data().subspan(static_cast<std::size_t>(r) * d, d);
        quant.quantize_into(values, row);
        s.bits_on_air += d * static_cast<std::size_t>(config.quantizer_bits);
        s.bit_flips += flip_quantized_bits(row, ber, rng);
        quant.dequantize_into(row, values);
      }
      return s;
    }
  }
  throw Error("unreachable HdUplinkMode");
}

std::uint64_t hd_bits_per_scalar(const HdUplinkConfig& config) {
  const bool digital = config.mode == HdUplinkMode::BitErrors ||
                       config.mode == HdUplinkMode::Perfect;
  if (digital && config.binary_transport) return 1;
  if (digital && config.use_quantizer) {
    return static_cast<std::uint64_t>(config.quantizer_bits);
  }
  return 32;
}

std::uint64_t hd_update_bytes(const HdUplinkConfig& config,
                              std::uint64_t scalars) {
  return (scalars * hd_bits_per_scalar(config) + 7) / 8;
}

std::string describe(const HdUplinkConfig& config) {
  std::ostringstream os;
  switch (config.mode) {
    case HdUplinkMode::Perfect:
      os << "perfect";
      break;
    case HdUplinkMode::Awgn:
      os << "awgn snr=" << config.snr_db << "dB";
      break;
    case HdUplinkMode::BitErrors:
      os << "bit-errors pe=" << config.ber;
      if (config.binary_transport) {
        os << " (binary sign)";
      } else {
        os << " B=" << config.quantizer_bits
           << (config.use_quantizer ? " (AGC)" : " (raw float)");
      }
      break;
    case HdUplinkMode::PacketLoss:
      os << "packet-loss p=" << config.loss_rate << " Np=" << config.packet_bits;
      break;
  }
  return os.str();
}

}  // namespace fhdnn::channel
