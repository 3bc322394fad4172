#include "net/connection.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace fhdnn::net {

namespace {

/// One poll(2) over `fds`: true when any is ready, false on timeout or
/// EINTR; throws NetError naming `label` otherwise.
bool poll_fds(pollfd* fds, std::size_t n, int timeout_ms,
              std::string_view label) {
  const int r = ::poll(fds, static_cast<nfds_t>(n), timeout_ms);
  if (r < 0 && errno != EINTR) {
    throw NetError("poll on " + std::string(label) + ": " +
                   std::strerror(errno));
  }
  return r > 0;
}

}  // namespace

namespace detail {

bool poll_one(int fd, short events, int timeout_ms, std::string_view label) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  return poll_fds(&pfd, 1, timeout_ms, label);
}

}  // namespace detail

bool Connection::wait_writable(int timeout_ms) {
  const int fd = this->fd();
  if (fd < 0) return true;
  return detail::poll_one(fd, POLLOUT, timeout_ms, describe());
}

bool wait_any(std::span<Connection* const> conns,
              std::span<const char> want_write, int timeout_ms) {
  FHDNN_CHECK(want_write.size() == conns.size(),
              "wait_any: " << want_write.size() << " write flags for "
                           << conns.size() << " connections");
  if (conns.empty()) return false;
  std::vector<pollfd> fds(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    fds[i].fd = conns[i]->fd();
    FHDNN_CHECK(fds[i].fd >= 0,
                "wait_any: " << conns[i]->describe() << " has no fd");
    fds[i].events = static_cast<short>(POLLIN | (want_write[i] ? POLLOUT : 0));
  }
  return poll_fds(fds.data(), fds.size(), timeout_ms, "a connection set");
}

void MessageChannel::send(const wire::Frame& frame) {
  const std::size_t at =
      begin_send(wire::kFrameHeaderSize + frame.payload.size());
  wire::append_frame(tx_, frame.type, frame.payload);
  end_send(at);
}

std::size_t MessageChannel::begin_send(std::size_t size_hint) {
  if (tx_off_ == tx_.size()) {
    tx_.clear();
    tx_off_ = 0;
  }
  if (tx_.size() + size_hint > tx_.capacity() && tx_off_ > 0) {
    // Growing would copy the written prefix too; drop it first.
    tx_.erase(tx_.begin(), tx_.begin() + static_cast<std::ptrdiff_t>(tx_off_));
    tx_off_ = 0;
  }
  if (tx_.size() + size_hint > tx_.capacity()) {
    tx_.reserve(std::max(tx_.size() + size_hint, 2 * tx_.capacity()));
  }
  return tx_.size();
}

void MessageChannel::end_send(std::size_t at) {
  const std::size_t n = tx_.size() - at;
  bytes_sent_ += n;
  largest_frame_ = std::max(largest_frame_, n);
  flush();
}

bool MessageChannel::flush() {
  while (tx_off_ < tx_.size()) {
    const std::size_t n =
        conn_.write_some(tx_.data() + tx_off_, tx_.size() - tx_off_);
    if (n == 0) return false;  // peer backpressure; retry on the next pump
    tx_off_ += n;
  }
  tx_.clear();
  tx_off_ = 0;
  return true;
}

void MessageChannel::pump_rx() {
  // Read straight into the assembler, asking for room for the rest of the
  // frame being assembled, so a ~MB frame lands in one buffer without
  // regrowth.  The cap keeps a header's length alone from growing the
  // buffer far ahead of the bytes that back it.
  constexpr std::size_t kMinRead = 16384;
  constexpr std::size_t kMaxReadAhead = std::size_t{16} << 20;
  for (;;) {
    const std::span<std::uint8_t> space =
        rx_.prepare(std::clamp(rx_.missing(), kMinRead, kMaxReadAhead));
    const std::size_t got = conn_.read_some(space.data(), space.size());
    if (got == 0) break;
    bytes_received_ += got;
    rx_.commit(got);
  }
}

std::optional<wire::FrameView> MessageChannel::poll() {
  flush();
  if (std::optional<wire::FrameView> frame = rx_.next()) return frame;
  pump_rx();
  std::optional<wire::FrameView> frame = rx_.next();
  if (!frame && conn_.peer_closed() && rx_.buffered() > 0) {
    throw NetError("peer closed mid-frame (" +
                   std::to_string(rx_.buffered()) + " bytes buffered) on " +
                   conn_.describe());
  }
  return frame;
}

wire::FrameView MessageChannel::recv(int timeout_ms) {
  int idle_ms = 0;  // waits that ended without a byte arriving
  for (;;) {
    const std::uint64_t seen = bytes_received_;
    if (std::optional<wire::FrameView> f = poll()) return *f;
    if (conn_.peer_closed()) {
      throw NetError("peer closed on " + conn_.describe());
    }
    if (bytes_received_ != seen) idle_ms = 0;
    if (idle_ms >= timeout_ms) {
      throw NetError("recv timed out after " + std::to_string(timeout_ms) +
                     " ms on " + conn_.describe());
    }
    const int slice_ms = std::min(50, timeout_ms - idle_ms);
    conn_.wait_readable(slice_ms);
    idle_ms += slice_ms;
  }
}

}  // namespace fhdnn::net
