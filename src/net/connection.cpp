#include "net/connection.hpp"

#include "util/workspace.hpp"

namespace fhdnn::net {

void MessageChannel::send(const wire::Frame& frame) {
  const std::size_t queued = tx_.size();
  wire::append_frame(tx_, frame.type, frame.payload);
  bytes_sent_ += tx_.size() - queued;
  flush();
}

bool MessageChannel::flush() {
  while (tx_off_ < tx_.size()) {
    const std::size_t n =
        conn_.write_some(tx_.data() + tx_off_, tx_.size() - tx_off_);
    if (n == 0) break;  // peer backpressure; retry on the next pump
    tx_off_ += n;
  }
  if (tx_off_ == tx_.size()) {
    tx_.clear();
    tx_off_ = 0;
    return true;
  }
  if (tx_off_ >= 65536) {  // reclaim drained prefix of a long queue
    tx_.erase(tx_.begin(), tx_.begin() + static_cast<std::ptrdiff_t>(tx_off_));
    tx_off_ = 0;
  }
  return false;
}

void MessageChannel::pump_rx() {
  // Stage reads through the per-thread workspace arena: one 16 KiB block
  // borrowed per pump, released by the Scope — no steady-state allocation.
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  constexpr std::int64_t kStageFloats = 4096;
  auto* stage = reinterpret_cast<std::uint8_t*>(ws.floats(kStageFloats));
  const std::size_t stage_bytes = static_cast<std::size_t>(kStageFloats) * 4;
  for (;;) {
    const std::size_t got = conn_.read_some(stage, stage_bytes);
    if (got == 0) break;
    bytes_received_ += got;
    rx_.feed(stage, got);
  }
}

std::optional<wire::Frame> MessageChannel::poll() {
  flush();
  pump_rx();
  std::optional<wire::Frame> frame = rx_.next();
  if (!frame && conn_.peer_closed() && rx_.buffered() > 0) {
    throw NetError("peer closed mid-frame (" +
                   std::to_string(rx_.buffered()) + " bytes buffered) on " +
                   conn_.describe());
  }
  return frame;
}

wire::Frame MessageChannel::recv(int timeout_ms) {
  int remaining_ms = timeout_ms;
  for (;;) {
    if (std::optional<wire::Frame> f = poll()) return std::move(*f);
    if (conn_.peer_closed()) {
      throw NetError("peer closed on " + conn_.describe());
    }
    if (remaining_ms <= 0) {
      throw NetError("recv timed out after " + std::to_string(timeout_ms) +
                     " ms on " + conn_.describe());
    }
    const int slice_ms = remaining_ms < 50 ? remaining_ms : 50;
    conn_.wait_readable(slice_ms);
    remaining_ms -= slice_ms;
  }
}

}  // namespace fhdnn::net
