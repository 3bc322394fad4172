#include "wire/messages.hpp"

#include <cstring>
#include <string>
#include <utility>

#include "util/bytes.hpp"

namespace fhdnn::wire {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::DecodeError;
using util::DecodeErrorKind;

// Shared decode prologue: assert the frame type, hand back a strict reader.
ByteReader open(const FrameView& f, MsgType want, const char* name) {
  if (f.type != want) {
    throw DecodeError(DecodeErrorKind::kSchema, 0,
                      std::string("frame is not a ") + name + " message");
  }
  return ByteReader(f.payload.data(), f.payload.size());
}

void put_round_assign_head(ByteWriter& w, const RoundAssignHead& h) {
  w.write_i64(h.round_index);
  w.write_u64(h.n_participants);
  put_rng_state(w, h.rng);
  w.write_u64(h.slots.size());
  for (const SlotAssignment& a : h.slots) {
    w.write_u64(a.slot);
    w.write_u64(a.client);
  }
}

void put_update_head(ByteWriter& w, const UpdateHead& h) {
  w.write_i64(h.round_index);
  w.write_u64(h.slot);
  w.write_u64(h.client);
  w.write_f64(h.loss);
  channel::put_transport_stats(w, h.stats);
}

}  // namespace

// ---------------------------------------------------------------------------
// Hello / HelloAck

Frame HelloMsg::to_frame() const {
  ByteWriter w;
  w.write_u32(config_fingerprint);
  w.write_str(protocol);
  w.write_u64(capabilities);
  return Frame{MsgType::kHello, w.take()};
}

HelloMsg HelloMsg::from_frame(FrameView f) {
  ByteReader r = open(f, MsgType::kHello, "Hello");
  HelloMsg m;
  m.config_fingerprint = r.read_u32();
  m.protocol = r.read_str();
  m.capabilities = r.read_u64();
  r.finish();
  return m;
}

Frame HelloAckMsg::to_frame() const {
  ByteWriter w;
  w.write_u32(config_fingerprint);
  w.write_u64(worker_id);
  return Frame{MsgType::kHelloAck, w.take()};
}

HelloAckMsg HelloAckMsg::from_frame(FrameView f) {
  ByteReader r = open(f, MsgType::kHelloAck, "HelloAck");
  HelloAckMsg m;
  m.config_fingerprint = r.read_u32();
  m.worker_id = r.read_u64();
  r.finish();
  return m;
}

// ---------------------------------------------------------------------------
// RoundAssign

Frame RoundAssignMsg::to_frame() const {
  ByteWriter w;
  put_round_assign_head(w, *this);
  w.write_blob(state_blob);
  return Frame{MsgType::kRoundAssign, w.take()};
}

void append_round_assign(std::vector<std::uint8_t>& out,
                         const RoundAssignHead& head,
                         std::span<const std::uint8_t> state_image) {
  ByteWriter w(std::move(out));
  const std::size_t at = begin_frame(w, MsgType::kRoundAssign);
  put_round_assign_head(w, head);
  w.write_blob(state_image);
  out = w.take();
  end_frame(out, at);
}

RoundAssignView RoundAssignMsg::from_frame(FrameView f) {
  ByteReader r = open(f, MsgType::kRoundAssign, "RoundAssign");
  RoundAssignView m;
  m.round_index = r.read_i64();
  m.n_participants = r.read_u64();
  m.rng = get_rng_state(r);
  const std::uint64_t n_slots = r.read_u64();
  if (n_slots > r.remaining() / (2 * sizeof(std::uint64_t))) {
    throw DecodeError(DecodeErrorKind::kTruncated, r.offset(),
                      "slot count " + std::to_string(n_slots) +
                          " overruns the payload");
  }
  if (n_slots > m.n_participants) {
    throw DecodeError(DecodeErrorKind::kSchema, r.offset(),
                      "more slot assignments than cohort participants");
  }
  m.slots.reserve(static_cast<std::size_t>(n_slots));
  for (std::uint64_t i = 0; i < n_slots; ++i) {
    SlotAssignment a;
    a.slot = r.read_u64();
    a.client = r.read_u64();
    if (a.slot >= m.n_participants) {
      throw DecodeError(DecodeErrorKind::kSchema, r.offset(),
                        "slot index beyond the cohort size");
    }
    m.slots.push_back(a);
  }
  m.state_blob = r.read_blob();
  r.finish();
  return m;
}

// ---------------------------------------------------------------------------
// Update

Frame UpdateMsg::to_frame() const {
  ByteWriter w;
  put_update_head(w, *this);
  w.write_blob(update_blob);
  return Frame{MsgType::kUpdate, w.take()};
}

void append_update(
    std::vector<std::uint8_t>& out, const UpdateHead& head,
    const std::function<void(std::vector<std::uint8_t>&)>& append_blob) {
  ByteWriter w(std::move(out));
  const std::size_t at = begin_frame(w, MsgType::kUpdate);
  put_update_head(w, head);
  const std::size_t len_at = w.size();
  w.write_u64(0);  // blob length, patched below
  out = w.take();
  try {
    append_blob(out);
  } catch (...) {
    out.resize(at);
    throw;
  }
  const std::uint64_t len = out.size() - (len_at + sizeof(std::uint64_t));
  std::memcpy(out.data() + len_at, &len, sizeof(len));
  end_frame(out, at);
}

UpdateView UpdateMsg::from_frame(FrameView f) {
  ByteReader r = open(f, MsgType::kUpdate, "Update");
  UpdateView m;
  m.round_index = r.read_i64();
  m.slot = r.read_u64();
  m.client = r.read_u64();
  m.loss = r.read_f64();
  m.stats = channel::get_transport_stats(r);
  m.update_blob = r.read_blob();
  r.finish();
  return m;
}

// ---------------------------------------------------------------------------
// RoundDone / Shutdown

Frame RoundDoneMsg::to_frame() const {
  ByteWriter w;
  w.write_i64(round_index);
  w.write_u64(accepted);
  w.write_u64(bytes_uplink);
  w.write_f64(test_accuracy);
  return Frame{MsgType::kRoundDone, w.take()};
}

RoundDoneMsg RoundDoneMsg::from_frame(FrameView f) {
  ByteReader r = open(f, MsgType::kRoundDone, "RoundDone");
  RoundDoneMsg m;
  m.round_index = r.read_i64();
  m.accepted = r.read_u64();
  m.bytes_uplink = r.read_u64();
  m.test_accuracy = r.read_f64();
  r.finish();
  return m;
}

Frame ShutdownMsg::to_frame() const {
  ByteWriter w;
  w.write_i64(rounds_completed);
  return Frame{MsgType::kShutdown, w.take()};
}

ShutdownMsg ShutdownMsg::from_frame(FrameView f) {
  ByteReader r = open(f, MsgType::kShutdown, "Shutdown");
  ShutdownMsg m;
  m.rounds_completed = r.read_i64();
  r.finish();
  return m;
}

}  // namespace fhdnn::wire
