// The fhdnnd serving seam: federated rounds over wire connections.
//
// ServerRoundDriver plugs into RoundEngine::set_round_driver and replaces
// the in-process client loop with connected workers: each round it
// serializes the protocol state (a util/snapshot image), deals the round's
// delivered slots over the workers round-robin in slot order, ships each
// worker a RoundAssign (round RNG state + slot list + state blob), and
// collects one Update per slot — installing updates through
// RoundProtocol::load_update and the reports the engine's epilogue
// consumes. WorkerLoop is the other half: it reconstructs the protocol
// state and round stream from a RoundAssign, trains its slots through the
// SAME RoundProtocol::run_client code path (transport corruption and
// traffic accounting run on the worker, drawing from the same named RNG
// forks), and ships the retained updates back — one pool-width batch at a
// time, each batch's Updates queued before the next batch trains, so the
// server takes in early slots while later ones train.
//
// Each frame's bytes move once per side: the state image is encoded once
// per round and each RoundAssign, like each Update, is encoded straight
// into the channel's send buffer (wire::append_round_assign /
// append_update); a received frame is decoded, its snapshot image
// validated (SnapshotReader::borrow) and installed where the channel read
// it, before the next poll() reuses that buffer.
//
// Bit-identity across deployments follows from the engine's determinism
// contract (DESIGN.md §6): every client draws only from named forks of the
// round stream, updates are installed per slot, and the reduction is serial
// in slot order on the server — so run histories through socket pairs,
// TCP sockets, or the in-process LocalRoundDriver are byte-for-byte equal.
// Worker scheduling, collection order, and thread counts cannot matter.
//
// Blocking discipline: drive() is called from the engine thread and blocks
// until the round's updates are in (or round_timeout_ms passes without
// progress). Between passes over the workers it waits in net::wait_any for
// any worker to become readable, or writable while its send queue is
// non-empty: one poll(2) over the workers' sockets, TCP in fhdnnd and
// AF_UNIX pairs in the tests alike.
// Timeouts are accumulated wait-slice milliseconds of waits that brought
// no progress — the driver never reads a wall clock, keeping src/fl/
// inside the sim-clock lint contract.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/engine.hpp"
#include "net/connection.hpp"
#include "wire/messages.hpp"

namespace fhdnn::fl {

struct ServingConfig {
  int handshake_timeout_ms = 30000;
  int round_timeout_ms = 120000;  ///< cap on one round's collection wait
  int poll_slice_ms = 20;         ///< readiness wait granularity
};

/// Server side: owns the worker connections and drives rounds over them.
class ServerRoundDriver final : public RoundDriver {
 public:
  /// `fingerprint` is the engine's config_fingerprint(); `protocol_name`
  /// the trainer name ("fedavg", "fedhd") — both are validated against
  /// every worker's Hello.
  ServerRoundDriver(std::uint32_t fingerprint, std::string protocol_name,
                    ServingConfig config = {});

  /// Handshake a freshly-accepted connection and register it as a worker
  /// (takes ownership). Throws util::DecodeError on version skew, NetError on
  /// fingerprint/protocol mismatch or timeout. Returns the worker id.
  std::uint64_t add_worker(std::unique_ptr<net::Connection> conn);

  [[nodiscard]] std::size_t n_workers() const noexcept {
    return workers_.size();
  }

  void drive(RoundProtocol& protocol, const Rng& round_rng, int round_index,
             const std::vector<std::size_t>& participants,
             const std::vector<char>& delivered, const std::vector<char>& awake,
             std::vector<ClientReport>& reports) override;

  /// Broadcast the committed round's metrics (ack) to every worker.
  void round_committed(const RoundMetrics& metrics) override;

  /// Broadcast Shutdown, flush, and close every worker connection.
  void shutdown(std::int64_t rounds_completed);

  /// Framed bytes moved over all worker connections so far (serving
  /// accounting; the model-level traffic accounting stays TransportStats).
  [[nodiscard]] std::uint64_t wire_bytes_sent() const;
  [[nodiscard]] std::uint64_t wire_bytes_received() const;

 private:
  struct Worker {
    std::unique_ptr<net::Connection> conn;
    std::unique_ptr<net::MessageChannel> chan;
    std::uint64_t id = 0;
    std::size_t owed = 0;  ///< updates outstanding in the current round
  };

  std::uint32_t fingerprint_;
  std::string protocol_name_;
  ServingConfig config_;
  std::vector<Worker> workers_;
  std::uint64_t next_worker_id_ = 1;
  std::vector<std::uint8_t> state_image_;  ///< this round's state blob
};

/// Worker side: serves rounds from a server connection until Shutdown.
class WorkerLoop {
 public:
  /// `conn` and `protocol` must outlive the loop. `fingerprint` and
  /// `protocol_name` must be computed from a trainer constructed with the
  /// exact same config as the server's (the handshake enforces it).
  WorkerLoop(net::Connection& conn, RoundProtocol& protocol,
             std::uint32_t fingerprint, std::string protocol_name,
             ServingConfig config = {});

  /// Send Hello, await HelloAck. Throws on mismatch/timeout.
  void handshake();

  /// Serve rounds until the server sends Shutdown (returns true) or closes
  /// the connection (returns false — callers reconnect and retry, which is
  /// how workers ride out a kill -9'd server restarting from checkpoint).
  bool serve();

  [[nodiscard]] std::uint64_t worker_id() const noexcept { return worker_id_; }
  [[nodiscard]] std::int64_t rounds_served() const noexcept {
    return rounds_served_;
  }
  /// rounds_completed from the ShutdownMsg; -1 before shutdown.
  [[nodiscard]] std::int64_t shutdown_rounds() const noexcept {
    return shutdown_rounds_;
  }

 private:
  void serve_round(const wire::RoundAssignView& assign);
  /// Queue one trained slot's Update, encoded in place.
  void send_update(std::int64_t round_index, const wire::SlotAssignment& a,
                   const ClientReport& report);
  /// Flush queued updates, parking any frames that arrive meanwhile.
  void flush_blocking();

  net::MessageChannel chan_;
  RoundProtocol& protocol_;
  std::uint32_t fingerprint_;
  std::string protocol_name_;
  ServingConfig config_;
  std::uint64_t worker_id_ = 0;
  std::int64_t rounds_served_ = 0;
  std::int64_t shutdown_rounds_ = -1;
  std::vector<wire::Frame> parked_;  ///< frames received while flushing
  std::size_t parked_next_ = 0;
};

}  // namespace fhdnn::fl
