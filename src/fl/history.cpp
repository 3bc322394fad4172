#include "fl/history.hpp"

namespace fhdnn::fl {

double TrainingHistory::final_accuracy() const {
  return rounds_.empty() ? 0.0 : rounds_.back().test_accuracy;
}

std::optional<std::int64_t> TrainingHistory::rounds_to_accuracy(
    double target) const {
  for (const auto& m : rounds_) {
    if (m.test_accuracy >= target) return m.round;
  }
  return std::nullopt;
}

std::size_t TrainingHistory::total_timed_out() const {
  std::size_t total = 0;
  for (const auto& m : rounds_) total += m.timed_out;
  return total;
}

std::uint64_t TrainingHistory::total_bits_on_air() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds_) total += m.bits_on_air;
  return total;
}

std::uint64_t TrainingHistory::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds_) total += m.retransmissions;
  return total;
}

std::uint64_t TrainingHistory::total_residual_errors() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds_) total += m.residual_errors;
  return total;
}

double TrainingHistory::total_simulated_seconds() const {
  double total = 0.0;
  for (const auto& m : rounds_) total += m.simulated_round_seconds;
  return total;
}

void TrainingHistory::save(util::SnapshotWriter& w) const {
  w.write_u64(rounds_.size());
  for (const RoundMetrics& m : rounds_) {
    w.write_i64(m.round);
    w.write_f64(m.test_accuracy);
    w.write_f64(m.train_loss);
    w.write_u64(m.clients);
    w.write_u64(m.sampled);
    w.write_u64(m.dropped);
    w.write_u64(m.timed_out);
    w.write_u64(m.stale_accepted);
    w.write_u64(m.bytes_uplink);
    w.write_u64(m.bits_on_air);
    w.write_u64(m.bit_flips);
    w.write_u64(m.packets_lost);
    w.write_u64(m.retransmissions);
    w.write_u64(m.residual_errors);
    w.write_f64(m.simulated_round_seconds);
    w.write_u64(m.events);
    w.write_f64(m.wall_seconds);
  }
}

void TrainingHistory::load(util::SnapshotReader& r) {
  const auto n = static_cast<std::size_t>(r.read_u64());
  rounds_.clear();
  rounds_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RoundMetrics m;
    m.round = r.read_i64();
    m.test_accuracy = r.read_f64();
    m.train_loss = r.read_f64();
    m.clients = static_cast<std::size_t>(r.read_u64());
    m.sampled = static_cast<std::size_t>(r.read_u64());
    m.dropped = static_cast<std::size_t>(r.read_u64());
    m.timed_out = static_cast<std::size_t>(r.read_u64());
    m.stale_accepted = static_cast<std::size_t>(r.read_u64());
    m.bytes_uplink = r.read_u64();
    m.bits_on_air = r.read_u64();
    m.bit_flips = r.read_u64();
    m.packets_lost = r.read_u64();
    m.retransmissions = r.read_u64();
    m.residual_errors = r.read_u64();
    m.simulated_round_seconds = r.read_f64();
    m.events = r.read_u64();
    m.wall_seconds = r.read_f64();
    rounds_.push_back(m);
  }
}

}  // namespace fhdnn::fl
