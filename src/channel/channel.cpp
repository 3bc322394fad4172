#include "channel/channel.hpp"

#include <algorithm>
#include <cmath>

#include "channel/bits.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fhdnn::channel {

void put_transport_stats(util::ByteWriter& w, const TransportStats& s) {
  w.write_u64(s.payload_scalars);
  w.write_u64(s.payload_bytes);
  w.write_u64(s.bits_on_air);
  w.write_u64(s.bit_flips);
  w.write_u64(s.packets_total);
  w.write_u64(s.packets_lost);
  w.write_u64(s.retransmissions);
  w.write_u64(s.residual_errors);
  w.write_f64(s.backoff_seconds);
  w.write_f64(s.noise_power);
}

TransportStats get_transport_stats(util::ByteReader& r) {
  TransportStats s;
  s.payload_scalars = r.read_u64();
  s.payload_bytes = r.read_u64();
  s.bits_on_air = r.read_u64();
  s.bit_flips = r.read_u64();
  s.packets_total = r.read_u64();
  s.packets_lost = r.read_u64();
  s.retransmissions = r.read_u64();
  s.residual_errors = r.read_u64();
  s.backoff_seconds = r.read_f64();
  s.noise_power = r.read_f64();
  return s;
}

TransportStats PerfectChannel::apply_scaled(std::vector<float>& payload,
                                            Rng& /*rng*/,
                                            double /*error_scale*/) const {
  TransportStats stats;
  stats.payload_scalars = payload.size();
  stats.bits_on_air = payload.size() * 32;
  return stats;
}

AwgnChannel::AwgnChannel(double snr_db)
    : snr_db_(snr_db), snr_linear_(std::pow(10.0, snr_db / 10.0)) {
  FHDNN_CHECK(std::isfinite(snr_db), "AWGN snr_db " << snr_db);
}

TransportStats AwgnChannel::apply_scaled(std::vector<float>& payload, Rng& rng,
                                         double error_scale) const {
  FHDNN_CHECK(error_scale > 0.0, "AWGN error_scale " << error_scale);
  TransportStats stats;
  stats.payload_scalars = payload.size();
  // Uncoded analog transmission: one channel use per scalar; report the
  // equivalent digital size for accounting.
  stats.bits_on_air = payload.size() * 32;
  if (payload.empty()) return stats;
  double power = 0.0;
  for (const float v : payload) power += static_cast<double>(v) * v;
  power /= static_cast<double>(payload.size());
  if (power <= 0.0) return stats;  // silent payload: SNR undefined, no noise
  // A fault multiplier of m scales the noise power by m (SNR drops by m).
  const double sigma = std::sqrt(power * error_scale / snr_linear_);
  double noise_power = 0.0;
  for (auto& v : payload) {
    const double n = rng.normal(0.0, sigma);
    v += static_cast<float>(n);
    noise_power += n * n;
  }
  stats.noise_power = noise_power / static_cast<double>(payload.size());
  return stats;
}

std::string AwgnChannel::name() const {
  return "awgn(" + std::to_string(snr_db_) + "dB)";
}

BitErrorChannel::BitErrorChannel(double bit_error_rate) : ber_(bit_error_rate) {
  FHDNN_CHECK(ber_ >= 0.0 && ber_ <= 1.0, "BER " << ber_);
}

TransportStats BitErrorChannel::apply_scaled(std::vector<float>& payload,
                                             Rng& rng,
                                             double error_scale) const {
  FHDNN_CHECK(error_scale >= 0.0, "BSC error_scale " << error_scale);
  TransportStats stats;
  stats.payload_scalars = payload.size();
  stats.bits_on_air = payload.size() * 32;
  stats.bit_flips = flip_float_bits(payload, std::min(1.0, ber_ * error_scale),
                                    rng);
  return stats;
}

std::string BitErrorChannel::name() const {
  return "bsc(pe=" + std::to_string(ber_) + ")";
}

PacketLossChannel::PacketLossChannel(double loss_rate, std::size_t packet_bits)
    : loss_rate_(loss_rate), packet_bits_(packet_bits) {
  FHDNN_CHECK(loss_rate_ >= 0.0 && loss_rate_ <= 1.0, "loss rate " << loss_rate_);
  FHDNN_CHECK(packet_bits_ >= 32, "packet size " << packet_bits_ << " bits");
}

TransportStats PacketLossChannel::apply_scaled(std::vector<float>& payload,
                                               Rng& rng,
                                               double error_scale) const {
  FHDNN_CHECK(error_scale >= 0.0, "packet-loss error_scale " << error_scale);
  const double loss = std::min(1.0, loss_rate_ * error_scale);
  TransportStats stats;
  stats.payload_scalars = payload.size();
  stats.bits_on_air = payload.size() * 32;
  if (payload.empty()) return stats;
  const std::size_t floats_per_packet = packet_bits_ / 32;
  const std::size_t n_packets =
      (payload.size() + floats_per_packet - 1) / floats_per_packet;
  stats.packets_total = n_packets;
  for (std::size_t p = 0; p < n_packets; ++p) {
    if (!rng.bernoulli(loss)) continue;
    ++stats.packets_lost;
    const std::size_t begin = p * floats_per_packet;
    const std::size_t end = std::min(payload.size(), begin + floats_per_packet);
    for (std::size_t i = begin; i < end; ++i) payload[i] = 0.0F;
  }
  return stats;
}

std::string PacketLossChannel::name() const {
  return "packet-loss(p=" + std::to_string(loss_rate_) + ")";
}

std::unique_ptr<Channel> make_awgn(double snr_db) {
  return std::make_unique<AwgnChannel>(snr_db);
}
std::unique_ptr<Channel> make_bit_error(double ber) {
  return std::make_unique<BitErrorChannel>(ber);
}
std::unique_ptr<Channel> make_packet_loss(double loss_rate,
                                          std::size_t packet_bits) {
  return std::make_unique<PacketLossChannel>(loss_rate, packet_bits);
}

}  // namespace fhdnn::channel
