#include "channel/arq.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/error.hpp"
#include "util/bytes.hpp"  // util::crc32

namespace fhdnn::channel {

double arq_backoff_seconds(const ArqConfig& config, int retry) {
  FHDNN_CHECK(retry >= 1, "ARQ backoff retry " << retry);
  double backoff = config.initial_backoff_seconds;
  for (int k = 1; k < retry; ++k) {
    backoff *= config.backoff_factor;
    if (backoff >= config.max_backoff_seconds) break;
  }
  return std::min(backoff, config.max_backoff_seconds);
}

ReliableChannel::ReliableChannel(const Channel* inner, ArqConfig config)
    : inner_(inner), config_(config) {
  FHDNN_CHECK(config_.packet_bits >= 32,
              "ARQ frame payload " << config_.packet_bits << " bits");
  FHDNN_CHECK(config_.max_retries >= 0,
              "ARQ max_retries " << config_.max_retries);
  FHDNN_CHECK(config_.initial_backoff_seconds >= 0.0 &&
                  config_.backoff_factor >= 1.0 &&
                  config_.max_backoff_seconds >= 0.0 &&
                  config_.ack_rtt_seconds >= 0.0,
              "ARQ backoff configuration");
}

TransportStats ReliableChannel::apply_scaled(std::vector<float>& payload,
                                             Rng& rng,
                                             double error_scale) const {
  TransportStats stats;
  stats.payload_scalars = payload.size();
  if (payload.empty()) return stats;
  const std::size_t floats_per_frame = config_.packet_bits / 32;
  const std::size_t n_frames =
      (payload.size() + floats_per_frame - 1) / floats_per_frame;
  stats.packets_total = n_frames;

  std::vector<float> frame;
  for (std::size_t p = 0; p < n_frames; ++p) {
    const std::size_t begin = p * floats_per_frame;
    const std::size_t end =
        std::min(payload.size(), begin + floats_per_frame);
    const std::size_t len = end - begin;
    const std::size_t len_bytes = len * sizeof(float);
    const std::uint32_t sent_crc =
        util::crc32(payload.data() + begin, len_bytes);
    const std::uint64_t frame_bits = len * 32 + 32;  // payload + CRC field

    for (int attempt = 0;; ++attempt) {
      frame.assign(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                   payload.begin() + static_cast<std::ptrdiff_t>(end));
      stats.bits_on_air += frame_bits;
      if (config_.mode == ArqMode::StopAndWait) {
        // One frame in flight: every attempt waits out the ACK round trip.
        stats.backoff_seconds += config_.ack_rtt_seconds;
      }
      if (inner_ != nullptr) {
        Rng try_rng = rng.fork("arq-p" + std::to_string(p) + "-t" +
                               std::to_string(attempt));
        const TransportStats s = inner_->apply_scaled(frame, try_rng,
                                                      error_scale);
        stats.bit_flips += s.bit_flips;
        stats.packets_lost += s.packets_lost;
        stats.noise_power += s.noise_power;
      }
      // The receiver only has the CRC: a corrupted frame whose CRC happens
      // to collide is accepted corrupted (probability ~2^-32 per frame).
      const bool accepted = util::crc32(frame.data(), len_bytes) == sent_crc;
      const bool out_of_retries = attempt >= config_.max_retries;
      if (accepted || out_of_retries) {
        if (!accepted) ++stats.residual_errors;  // delivered corrupted
        std::copy(frame.begin(), frame.end(),
                  payload.begin() + static_cast<std::ptrdiff_t>(begin));
        break;
      }
      ++stats.retransmissions;
      if (config_.mode == ArqMode::SelectiveRepeat) {
        // Pipelined ACKs: only a NAK'd frame pays the turnaround.
        stats.backoff_seconds += config_.ack_rtt_seconds;
      }
      stats.backoff_seconds += arq_backoff_seconds(config_, attempt + 1);
    }
  }
  return stats;
}

std::string ReliableChannel::name() const {
  std::ostringstream os;
  os << "arq("
     << (config_.mode == ArqMode::StopAndWait ? "stop-and-wait"
                                              : "selective-repeat")
     << " retries=" << config_.max_retries << ") over "
     << (inner_ != nullptr ? inner_->name() : "perfect");
  return os.str();
}

std::unique_ptr<Channel> make_reliable(const Channel* inner, ArqConfig config) {
  return std::make_unique<ReliableChannel>(inner, config);
}

}  // namespace fhdnn::channel
