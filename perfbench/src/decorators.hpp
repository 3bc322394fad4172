// Decorators the traced run installs at the library's public seams.
//
//   * TracingDriver wraps the fl::RoundDriver a trainer runs its client
//     work through (LocalRoundDriver or ServerRoundDriver) and times the
//     round's prologue, drive and epilogue.
//   * TracingProtocol wraps the fl::RoundProtocol handed to that driver, or
//     to a WorkerLoop; its run_client, save_state, load_state, save_update
//     and load_update calls are exactly the per-client and per-worker steps.
//   * CountingConnection wraps each TCP end and counts calls and bytes.
//
// Each forwards every virtual of its seam unchanged (tests/test_measure.cpp
// checks this), so a traced run computes the same history as an untraced
// one. The untraced run installs none of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/engine.hpp"
#include "net/connection.hpp"
#include "trace.hpp"

namespace perfbench {

class TracingProtocol final : public fhdnn::fl::RoundProtocol {
 public:
  /// Which process half the wrapped protocol runs in; it picks the span
  /// names (fl.client.* and fl.serving.* on the server, fl.worker.* on a
  /// worker). Every span's parent is the tracer's current cause.
  enum class Side { kServer, kWorker };

  TracingProtocol(fhdnn::fl::RoundProtocol& inner, Tracer& tracer, Side side)
      : inner_(inner), tracer_(tracer), side_(side) {}

  void begin_round(const fhdnn::Rng& round_rng,
                   std::size_t n_participants) override;
  fhdnn::fl::ClientReport run_client(std::size_t slot, std::size_t client,
                                     const fhdnn::Rng& round_rng,
                                     bool delivered) override;
  void reduce(const std::vector<std::size_t>& participants,
              const std::vector<char>& delivered) override;
  AsyncReduceStats reduce_async(const std::vector<std::size_t>& participants,
                                const std::vector<char>& accepted,
                                const std::vector<char>& late,
                                double staleness_exponent,
                                int max_staleness) override;
  double evaluate() override;
  void save_state(fhdnn::util::SnapshotWriter& w) override;
  void load_state(fhdnn::util::SnapshotReader& r) override;
  void save_update(std::size_t slot, fhdnn::util::SnapshotWriter& w) override;
  void load_update(std::size_t slot, fhdnn::util::SnapshotReader& r) override;

 private:
  fhdnn::fl::RoundProtocol& inner_;
  Tracer& tracer_;
  Side side_;
};

class TracingDriver final : public fhdnn::fl::RoundDriver {
 public:
  /// `inner` must outlive the decorator. `protocol_side` names the spans of
  /// the TracingProtocol this driver hands to `inner`.
  TracingDriver(fhdnn::fl::RoundDriver& inner, Tracer& tracer,
                TracingProtocol::Side protocol_side)
      : inner_(inner), tracer_(tracer), side_(protocol_side) {}

  /// The benchmark opened round span `round_span` at `start_ns` and is
  /// about to call the trainer's round(); the prologue runs from here to
  /// drive().
  void begin_round(std::uint64_t round_span, std::int64_t round,
                   std::int64_t start_ns);

  void drive(fhdnn::fl::RoundProtocol& protocol, const fhdnn::Rng& round_rng,
             int round_index, const std::vector<std::size_t>& participants,
             const std::vector<char>& delivered,
             const std::vector<char>& awake,
             std::vector<fhdnn::fl::ClientReport>& reports) override;

  /// Forwards, then closes the epilogue (drive end to here).
  void round_committed(const fhdnn::fl::RoundMetrics& metrics) override;

 private:
  fhdnn::fl::RoundDriver& inner_;
  Tracer& tracer_;
  TracingProtocol::Side side_;
  std::uint64_t round_span_ = 0;
  std::int64_t round_ = 0;
  std::int64_t round_start_ns_ = 0;
  std::int64_t drive_end_ns_ = 0;
};

/// Call and byte counts of a group of connection ends. Ends on different
/// threads may share one group.
struct NetCounters {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> read_hits{0};  ///< reads that returned bytes
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> short_writes{0};  ///< took less than offered
  std::atomic<std::uint64_t> bytes_out{0};
};

class CountingConnection final : public fhdnn::net::Connection {
 public:
  /// `counters` must outlive the connection.
  CountingConnection(std::unique_ptr<fhdnn::net::Connection> inner,
                     NetCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  std::size_t read_some(std::uint8_t* out, std::size_t len) override;
  std::size_t write_some(const std::uint8_t* data, std::size_t len) override;
  [[nodiscard]] bool peer_closed() const override {
    return inner_->peer_closed();
  }
  void close() override { inner_->close(); }
  /// Forwarded so a traced server still registers its workers with epoll.
  [[nodiscard]] int fd() const override { return inner_->fd(); }
  bool wait_readable(int timeout_ms) override {
    return inner_->wait_readable(timeout_ms);
  }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

 private:
  std::unique_ptr<fhdnn::net::Connection> inner_;
  NetCounters& counters_;
};

}  // namespace perfbench
