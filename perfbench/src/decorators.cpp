#include "decorators.hpp"

namespace perfbench {

namespace fl = fhdnn::fl;

void TracingProtocol::begin_round(const fhdnn::Rng& round_rng,
                                  std::size_t n_participants) {
  inner_.begin_round(round_rng, n_participants);
}

fl::ClientReport TracingProtocol::run_client(std::size_t slot,
                                             std::size_t client,
                                             const fhdnn::Rng& round_rng,
                                             bool delivered) {
  const ScopedSpan span(tracer_,
                        side_ == Side::kServer ? "fl.client.run_client"
                                               : "fl.worker.train",
                        tracer_.cause(), tracer_.cause_round());
  return inner_.run_client(slot, client, round_rng, delivered);
}

void TracingProtocol::reduce(const std::vector<std::size_t>& participants,
                             const std::vector<char>& delivered) {
  inner_.reduce(participants, delivered);
}

fl::RoundProtocol::AsyncReduceStats TracingProtocol::reduce_async(
    const std::vector<std::size_t>& participants,
    const std::vector<char>& accepted, const std::vector<char>& late,
    double staleness_exponent, int max_staleness) {
  return inner_.reduce_async(participants, accepted, late, staleness_exponent,
                             max_staleness);
}

double TracingProtocol::evaluate() { return inner_.evaluate(); }

void TracingProtocol::save_state(fhdnn::util::SnapshotWriter& w) {
  const ScopedSpan span(tracer_,
                        side_ == Side::kServer ? "fl.serving.state_encode"
                                               : "fl.worker.state_encode",
                        tracer_.cause(), tracer_.cause_round());
  inner_.save_state(w);
}

void TracingProtocol::load_state(fhdnn::util::SnapshotReader& r) {
  const ScopedSpan span(tracer_,
                        side_ == Side::kServer ? "fl.serving.state_restore"
                                               : "fl.worker.state_restore",
                        tracer_.cause(), tracer_.cause_round());
  inner_.load_state(r);
}

void TracingProtocol::save_update(std::size_t slot,
                                  fhdnn::util::SnapshotWriter& w) {
  const ScopedSpan span(tracer_,
                        side_ == Side::kServer ? "fl.serving.update_encode"
                                               : "fl.worker.update_encode",
                        tracer_.cause(), tracer_.cause_round());
  inner_.save_update(slot, w);
}

void TracingProtocol::load_update(std::size_t slot,
                                  fhdnn::util::SnapshotReader& r) {
  const ScopedSpan span(tracer_,
                        side_ == Side::kServer ? "fl.serving.update_install"
                                               : "fl.worker.update_install",
                        tracer_.cause(), tracer_.cause_round());
  inner_.load_update(slot, r);
}

void TracingDriver::begin_round(std::uint64_t round_span, std::int64_t round,
                                std::int64_t start_ns) {
  round_span_ = round_span;
  round_ = round;
  round_start_ns_ = start_ns;
}

void TracingDriver::drive(fl::RoundProtocol& protocol,
                          const fhdnn::Rng& round_rng, int round_index,
                          const std::vector<std::size_t>& participants,
                          const std::vector<char>& delivered,
                          const std::vector<char>& awake,
                          std::vector<fl::ClientReport>& reports) {
  Span prologue;
  prologue.name = "fl.engine.prologue";
  prologue.id = tracer_.new_id();
  prologue.parent = round_span_;
  prologue.thread = Tracer::thread_index();
  prologue.round = round_;
  prologue.start_ns = round_start_ns_;
  prologue.end_ns = Tracer::now_ns();
  tracer_.record(prologue);
  {
    const ScopedSpan span(tracer_, "fl.engine.drive", round_span_, round_);
    tracer_.set_cause(span.id(), round_);
    TracingProtocol traced(protocol, tracer_, side_);
    inner_.drive(traced, round_rng, round_index, participants, delivered,
                 awake, reports);
  }
  drive_end_ns_ = Tracer::now_ns();
}

void TracingDriver::round_committed(const fl::RoundMetrics& metrics) {
  inner_.round_committed(metrics);
  Span epilogue;
  epilogue.name = "fl.engine.epilogue";
  epilogue.id = tracer_.new_id();
  epilogue.parent = round_span_;
  epilogue.thread = Tracer::thread_index();
  epilogue.round = round_;
  epilogue.start_ns = drive_end_ns_;
  epilogue.end_ns = Tracer::now_ns();
  tracer_.record(epilogue);
}

std::size_t CountingConnection::read_some(std::uint8_t* out, std::size_t len) {
  const std::size_t n = inner_->read_some(out, len);
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  if (n > 0) counters_.read_hits.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_in.fetch_add(n, std::memory_order_relaxed);
  return n;
}

std::size_t CountingConnection::write_some(const std::uint8_t* data,
                                           std::size_t len) {
  const std::size_t n = inner_->write_some(data, len);
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  if (n < len) counters_.short_writes.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_out.fetch_add(n, std::memory_order_relaxed);
  return n;
}

}  // namespace perfbench
