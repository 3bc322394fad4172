#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>  // fhdnn-lint: allow(raw-thread) — sleep_for only, no spawning

namespace fhdnn::net {
namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("bad IPv4 address: " + host);
  }
  return addr;
}

/// A non-blocking stream socket: TCP from the listener and connect_tcp,
/// AF_UNIX from make_socket_pair.
class SocketConnection final : public Connection {
 public:
  SocketConnection(int fd, std::string label)
      : fd_(fd), label_(std::move(label)) {
    set_nonblocking(fd_);
  }

  ~SocketConnection() override { SocketConnection::close(); }

  std::size_t read_some(std::uint8_t* out, std::size_t len) override {
    if (fd_ < 0) return 0;
    const ssize_t n = ::recv(fd_, out, len, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) {  // orderly EOF
      eof_ = true;
      return 0;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    if (errno == ECONNRESET || errno == EPIPE) {
      eof_ = true;
      return 0;
    }
    fail_errno("recv on " + label_);
  }

  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    if (fd_ < 0) throw NetError("write on closed " + label_);
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    if (errno == ECONNRESET || errno == EPIPE) {
      eof_ = true;
      throw NetError("peer closed on " + label_);
    }
    fail_errno("send on " + label_);
  }

  [[nodiscard]] bool peer_closed() const override { return eof_; }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] int fd() const override { return fd_; }

  bool wait_readable(int timeout_ms) override {
    if (fd_ < 0) return true;
    return detail::poll_one(fd_, POLLIN, timeout_ms, label_);
  }

  [[nodiscard]] std::string describe() const override { return label_; }

 private:
  int fd_;
  std::string label_;
  bool eof_ = false;
};

/// A connection over the TCP socket `fd`.  Frames are latency-sensitive
/// and already batched, so Nagle is off.
std::unique_ptr<Connection> tcp_connection(int fd, std::string label) {
  auto conn = std::make_unique<SocketConnection>(fd, std::move(label));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

}  // namespace

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, 128) != 0) fail_errno("listen");
  set_nonblocking(fd_);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Connection> TcpListener::accept() {
  const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (client < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return nullptr;
    }
    fail_errno("accept");
  }
  return tcp_connection(client, "tcp:accepted#" + std::to_string(client));
}

bool TcpListener::wait_pending(int timeout_ms) {
  return detail::poll_one(fd_, POLLIN, timeout_ms, "listener");
}

std::unique_ptr<Connection> connect_tcp(const std::string& host,
                                        std::uint16_t port, int timeout_ms) {
  const std::string label = "tcp:" + host + ":" + std::to_string(port);
  // Connect timeouts are real-time by nature; net/ sits outside the
  // simulated-clock contract (the round path only reaches here through the
  // linker's name-level over-approximation).
  // fhdnn-lint: allow(det-effects)
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail_errno("socket");
    sockaddr_in addr = make_addr(host, port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return tcp_connection(fd, label);
    }
    ::close(fd);
    if (errno != ECONNREFUSED && errno != ENETUNREACH && errno != ETIMEDOUT &&
        errno != EINTR) {
      fail_errno("connect " + label);
    }
    // fhdnn-lint: allow(det-effects) -- same timeout deadline as above
    if (std::chrono::steady_clock::now() >= deadline) {
      throw NetError("connect " + label + " timed out after " +
                     std::to_string(timeout_ms) + " ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_socket_pair(std::size_t send_buffer_bytes) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    fail_errno("socketpair");
  }
  // Each end owns its fd from here on, so a failure below closes both.
  auto first = std::make_unique<SocketConnection>(
      fds[0], "unix:pair#" + std::to_string(fds[0]));
  auto second = std::make_unique<SocketConnection>(
      fds[1], "unix:pair#" + std::to_string(fds[1]));
  if (send_buffer_bytes > 0) {
    const int bytes = static_cast<int>(send_buffer_bytes);
    for (const int fd : fds) {
      if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) !=
          0) {
        fail_errno("setsockopt(SO_SNDBUF)");
      }
    }
  }
  return {std::move(first), std::move(second)};
}

}  // namespace fhdnn::net
