// Byte-stream connections and frame pumping for the fhdnnd serving seam.
//
// `Connection` is the seam both transports implement: non-blocking TCP
// sockets (src/net/socket.*, driven by the epoll Reactor) and the
// deterministic in-process loopback pipe (src/net/loopback.*, used by tests
// and the single-process integration path).  All reads and writes are
// non-blocking; `wait_readable` is the only blocking call, and it always
// takes a timeout.
//
// `MessageChannel` layers wire framing on a Connection with explicit
// read/write buffering: sends queue into a tx buffer flushed as the peer
// drains it (backpressure shows up as `tx_pending() > 0`), and receives pump
// bytes through a per-thread workspace-arena staging block into a
// FrameAssembler, so steady-state pumping costs no allocation beyond the
// frames themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "wire/wire.hpp"

namespace fhdnn::net {

/// Networking failure (connect/accept/read/write/timeout/peer-closed).
class NetError : public Error {
 public:
  explicit NetError(const std::string& what) : Error("net error: " + what) {}
};

/// A bidirectional, non-blocking byte stream.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Read up to `len` bytes without blocking.  Returns the number of bytes
  /// read; 0 means no bytes are currently available (check peer_closed()
  /// to distinguish EOF).  Throws NetError on transport failure.
  virtual std::size_t read_some(std::uint8_t* out, std::size_t len) = 0;

  /// Write up to `len` bytes without blocking.  Returns the number of bytes
  /// accepted (0 when the peer's buffer is full — backpressure).  Throws
  /// NetError when the peer is gone.
  virtual std::size_t write_some(const std::uint8_t* data,
                                 std::size_t len) = 0;

  /// True once the peer has closed and all readable bytes were drained.
  [[nodiscard]] virtual bool peer_closed() const = 0;

  /// Close this end; further reads/writes fail or report peer_closed.
  virtual void close() = 0;

  /// Pollable file descriptor for the Reactor, or -1 (loopback pipes have
  /// no fd; callers fall back to wait_readable).
  [[nodiscard]] virtual int fd() const { return -1; }

  /// Block up to `timeout_ms` for readability (or peer close).  Returns
  /// true when bytes are available or the peer closed, false on timeout.
  virtual bool wait_readable(int timeout_ms) = 0;

  /// Human-readable endpoint label for logs ("tcp:127.0.0.1:4242", ...).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Wire frames over a Connection, with tx buffering + rx assembly.
/// Not thread-safe: one MessageChannel belongs to one pumping thread.
class MessageChannel {
 public:
  explicit MessageChannel(Connection& conn) : conn_(conn) {}

  /// Queue one frame and opportunistically flush.
  void send(const wire::Frame& frame);

  /// Push queued tx bytes to the peer; true when the queue drained.
  bool flush();

  /// Pump readable bytes and return the next complete frame, if any.
  /// Non-blocking.  Throws util::DecodeError on stream corruption, NetError
  /// when the peer closed mid-frame.
  std::optional<wire::Frame> poll();

  /// Blocking receive with timeout: pumps until a frame arrives.  Throws
  /// NetError on timeout or peer close.
  wire::Frame recv(int timeout_ms);

  /// Bytes queued but not yet accepted by the peer (backpressure gauge).
  [[nodiscard]] std::size_t tx_pending() const noexcept {
    return tx_.size() - tx_off_;
  }

  [[nodiscard]] Connection& connection() noexcept { return conn_; }

  /// Cumulative framed-byte counters (serving accounting + bench).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }

 private:
  void pump_rx();

  Connection& conn_;
  std::vector<std::uint8_t> tx_;
  std::size_t tx_off_ = 0;
  wire::FrameAssembler rx_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace fhdnn::net
