// Byte-stream connections and frame pumping for the fhdnnd serving seam.
//
// `Connection` is the seam the transport implements: non-blocking stream
// sockets (src/net/socket.*), TCP between processes and connected AF_UNIX
// pairs inside one (tests).  Every connection has a pollable fd, so the
// tests wait through the same poll(2) as fhdnnd.  All reads and writes are
// non-blocking; `wait_readable`, `wait_writable` and `wait_any` (readiness
// of a set of connections) are the only blocking calls, and they always
// take a timeout.
//
// `MessageChannel` layers wire framing on a Connection with explicit
// read/write buffering, and moves each frame's bytes once on either side:
//   - sends encode into the tx buffer (send_with runs an in-place encoder
//     there), which is flushed as the peer drains it (backpressure shows up
//     as `tx_pending() > 0`);
//   - receives read straight into the FrameAssembler's buffer, and poll()
//     / recv() return a view of the frame there, valid until the next
//     poll() or recv() — decode it (or copy it into a wire::Frame) first.
// Both buffers keep their capacity and move bytes only when they have
// drained or must grow, so steady-state pumping allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

  /// Pollable file descriptor; -1 once closed.
  [[nodiscard]] virtual int fd() const = 0;

  /// Block up to `timeout_ms` for readability (or peer close).  Returns
  /// true when bytes are available or the peer closed, false on timeout.
  virtual bool wait_readable(int timeout_ms) = 0;

  /// Block up to `timeout_ms` until write_some can accept bytes (or the
  /// connection failed).  Returns false on timeout.  The default polls
  /// fd(); a closed connection reports writable at once (its write throws).
  virtual bool wait_writable(int timeout_ms);

  /// Human-readable endpoint label for logs ("tcp:127.0.0.1:4242", ...).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Block up to `timeout_ms` until any of `conns` is readable or closed, or,
/// where `want_write[i]` is set, writable, in one poll(2) over their fds.
/// Returns false on timeout (at once for an empty set).  Every connection
/// must be open: poll(2) skips a negative fd and would sleep the whole
/// timeout.
bool wait_any(std::span<Connection* const> conns,
              std::span<const char> want_write, int timeout_ms);

namespace detail {
/// One poll(2) on `fd` for `events` (POLLIN / POLLOUT): true when ready,
/// false on timeout or EINTR; throws NetError naming `label` otherwise.
bool poll_one(int fd, short events, int timeout_ms, std::string_view label);
}  // namespace detail

/// Wire frames over a Connection, with tx buffering + rx assembly.
/// Not thread-safe: one MessageChannel belongs to one pumping thread.
class MessageChannel {
 public:
  explicit MessageChannel(Connection& conn) : conn_(conn) {}

  /// Queue one frame and opportunistically flush.
  void send(const wire::Frame& frame);

  /// Queue one frame that `encode(std::vector<std::uint8_t>& tx)` appends
  /// to the tx buffer in place (wire::append_round_assign, append_update),
  /// then opportunistically flush.  If `encode` throws, nothing is queued.
  template <typename Encode>
  void send_with(Encode&& encode) {
    const std::size_t at = begin_send(largest_frame_);
    try {
      encode(tx_);
    } catch (...) {
      tx_.resize(at);
      throw;
    }
    end_send(at);
  }

  /// Push queued tx bytes to the peer; true when the queue drained.
  bool flush();

  /// Return the next complete frame, pumping readable bytes when none is
  /// buffered.  Non-blocking.  The view is valid until the next poll() or
  /// recv().  Throws util::DecodeError on stream corruption, NetError when
  /// the peer closed mid-frame.
  std::optional<wire::FrameView> poll();

  /// Blocking receive: pumps until a frame arrives (a view, as poll()'s).
  /// Throws NetError on peer close, or once `timeout_ms` passes in waits
  /// that brought no bytes; a frame still arriving never times out.
  wire::FrameView recv(int timeout_ms);

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
  /// Makes room to append a frame of about `size_hint` bytes to tx_ and
  /// returns where it starts: a drained queue is cleared, and the written
  /// prefix is dropped only when the frame would grow the buffer.
  std::size_t begin_send(std::size_t size_hint);
  /// Accounts the frame appended at `at` and flushes.
  void end_send(std::size_t at);
  void pump_rx();

  Connection& conn_;
  std::vector<std::uint8_t> tx_;
  std::size_t tx_off_ = 0;
  std::size_t largest_frame_ = 0;  ///< size hint for send_with
  wire::FrameAssembler rx_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace fhdnn::net
