// Non-blocking stream sockets implementing the Connection seam: TCP for
// fhdnnd and its workers, and connected AF_UNIX pairs for in-process tests.
//
// TcpListener binds a host:port (port 0 asks the kernel for an ephemeral
// port — tools/fhdnnd publishes the result via --port-file so tests never
// race on a fixed port) and accepts ready connections without blocking.
// connect_tcp dials with a timeout and retries refusals until the deadline,
// which is what lets fhdnn-client workers start before the server, or
// reconnect after a kill -9'd server restarts from its checkpoint.
// make_socket_pair joins two ends inside one process for the tests, through
// the same connection code and poll(2) as TCP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "net/connection.hpp"

namespace fhdnn::net {

class TcpListener {
 public:
  /// Bind and listen on `host:port`; port 0 picks an ephemeral port.
  TcpListener(const std::string& host, std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The actually-bound port (resolves ephemeral requests).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept one pending connection without blocking; nullptr when none is
  /// pending.
  std::unique_ptr<Connection> accept();

  /// Block up to `timeout_ms` for a pending connection.
  bool wait_pending(int timeout_ms);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Dial `host:port`, retrying refused/unreachable attempts until
/// `timeout_ms` elapses.  Throws NetError on timeout.
std::unique_ptr<Connection> connect_tcp(const std::string& host,
                                        std::uint16_t port, int timeout_ms);

/// Two connected ends of an AF_UNIX stream socket pair, either of which may
/// outlive the other.  `send_buffer_bytes` > 0 sets SO_SNDBUF on both ends,
/// which bounds the bytes in flight each way before write_some returns 0.
/// The kernel doubles the request, floors it at 4608 and charges each
/// write some overhead: one large write takes 8064 bytes when 4096 were
/// asked for, 4480 when under 2 KiB were, and less when written in small
/// pieces.  0 keeps the system default.
// fhdnn-lint: allow(test-only-api) the tests' in-process connection pair
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_socket_pair(std::size_t send_buffer_bytes = 0);

}  // namespace fhdnn::net
