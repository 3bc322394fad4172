// Non-blocking TCP sockets implementing the Connection seam.
//
// TcpListener binds a host:port (port 0 asks the kernel for an ephemeral
// port — tools/fhdnnd publishes the result via --port-file so tests never
// race on a fixed port) and accepts ready connections without blocking.
// connect_tcp dials with a timeout and retries refusals until the deadline,
// which is what lets fhdnn-client workers start before the server, or
// reconnect after a kill -9'd server restarts from its checkpoint.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

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

}  // namespace fhdnn::net
