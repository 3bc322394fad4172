// Versioned, CRC-32-framed binary wire format for the fhdnnd serving seam.
//
// Every message that crosses a Connection (src/net/) is one frame:
//
//   [4]  magic "FHDW"
//   [2]  wire version (u16) — readers reject other versions (kVersion)
//   [2]  message type  (u16) — unknown types rejected (kType)
//   [8]  payload length (u64)
//   [4]  CRC-32 of the payload (util::crc32, the same function the
//        snapshot chunks and ARQ channel frames use)
//   [n]  payload
//
// Payload fields are encoded with the one byte codec (util/bytes:
// native-endian, raw IEEE bits, u64 length prefixes), so a payload
// round-trip is bit-exact — the property the engine's golden-history
// equality over the wire depends on.
//
// Validation is eager and strict: decode_frame() rejects trailing bytes,
// message decoders call ByteReader::finish() to reject unconsumed payload,
// and every defect surfaces as a typed util::DecodeError carrying the kind
// and the byte offset where validation stopped.  Large nested blobs
// (protocol state, per-slot updates) are snapshot images — util/snapshot's
// chunk discipline validated by SnapshotReader::borrow — embedded as
// length-prefixed byte strings, so they carry their own per-chunk CRCs in
// addition to the frame CRC.
//
// Decoding never copies a payload: decode_frame and FrameAssembler hand out
// FrameViews into the bytes they were given or received, and the message
// decoders (wire/messages) read their fields from those views.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace fhdnn::wire {

/// Current wire-format version.  Bump on any layout change; both sides
/// reject mismatches during the hello handshake rather than guessing.
inline constexpr std::uint16_t kWireVersion = 1;

/// Refuse to buffer frames larger than this (a corrupt or hostile length
/// prefix must not allocate unbounded memory).
inline constexpr std::uint64_t kMaxFrameBytes = 1ULL << 30;

enum class MsgType : std::uint16_t {
  kHello = 1,        ///< worker -> server: version/capabilities/fingerprint
  kHelloAck = 2,     ///< server -> worker: accept + worker id
  kRoundAssign = 3,  ///< server -> worker: round RNG, slots, state blob
  kUpdate = 4,       ///< worker -> server: one slot's trained update + stats
  kRoundDone = 5,    ///< server -> worker: committed round metrics (ack)
  kShutdown = 6,     ///< server -> worker: training finished, disconnect
};

/// True when `t` is a defined MsgType value.
[[nodiscard]] bool msg_type_known(std::uint16_t t);

struct FrameView;

/// An encoded message that owns its payload: what X::to_frame() builds and
/// MessageChannel::send queues, or a received frame copied out of its
/// buffer to outlive it.
struct Frame {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> payload;

  Frame() = default;
  Frame(MsgType t, std::vector<std::uint8_t> p)
      : type(t), payload(std::move(p)) {}
  /// Copies a view's payload (a frame kept past its buffer's next pump).
  Frame(const FrameView& view);  // NOLINT(google-explicit-constructor)
};

/// A validated frame whose payload stays in the buffer it arrived in:
/// decode_frame's input, or FrameAssembler's buffer until its next
/// prepare().  Message decoders read straight from it.
struct FrameView {
  MsgType type = MsgType::kHello;
  std::span<const std::uint8_t> payload;

  FrameView() = default;
  FrameView(MsgType t, std::span<const std::uint8_t> p) : type(t), payload(p) {}
  FrameView(const Frame& f)  // NOLINT(google-explicit-constructor)
      : type(f.type), payload(f.payload) {}
};

inline Frame::Frame(const FrameView& view)
    : type(view.type), payload(view.payload.begin(), view.payload.end()) {}

/// Frame header size in bytes (magic + version + type + length + CRC).
inline constexpr std::size_t kFrameHeaderSize = 4 + 2 + 2 + 8 + 4;

/// Append one encoded frame (header + payload) to `out` in place, the way
/// MessageChannel::send queues a frame without a full-frame temporary.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::span<const std::uint8_t> payload);

/// In-place framing for encoders that write a payload straight into `w`'s
/// buffer (wire/messages' append_* encoders): begin_frame writes a header
/// with a zero length and CRC and returns its offset; end_frame patches
/// both from the payload written after it.
[[nodiscard]] std::size_t begin_frame(util::ByteWriter& w, MsgType type);
void end_frame(std::vector<std::uint8_t>& out, std::size_t frame_at);

/// Encode one frame (header + payload) into a fresh buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload);

/// Strict one-shot decode: `data` must hold exactly one valid frame —
/// trailing bytes are rejected (kSchema).  Throws util::DecodeError on any
/// defect.  The view points into `data`.
[[nodiscard]] FrameView decode_frame(const std::uint8_t* data, std::size_t len);

/// Incremental frame decoder for a byte stream, reading in place: a reader
/// asks prepare() for space at the end of the buffer, receives into it and
/// commit()s what arrived.  next() validates eagerly (header fields as soon
/// as the header is buffered, CRC once the payload is complete) and returns
/// a view of the next frame, or nullopt when more bytes are needed.
///
/// A view stays valid until the next prepare(), so a frame is decoded
/// where it was received.  The buffer keeps its capacity and moves bytes
/// only when prepare() finds it drained (it rewinds) or too small (it
/// slides the undecoded tail to the front, then grows).
///
/// Throws util::DecodeError on any defect; after a throw the stream is
/// unrecoverable by design (no resync — a corrupt stream means a broken or
/// hostile peer).
class FrameAssembler {
 public:
  /// Writable space of at least `min_bytes` after the buffered bytes.
  [[nodiscard]] std::span<std::uint8_t> prepare(std::size_t min_bytes);
  /// Marks `n` bytes written into the last prepare()'s span as received.
  void commit(std::size_t n);

  [[nodiscard]] std::optional<FrameView> next();
  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }
  /// Bytes the frame being assembled still lacks, as far as its header
  /// tells (the rest of the header until it has arrived); 0 when a frame
  /// is complete or its length is past kMaxFrameBytes.  Sizes reads.
  [[nodiscard]] std::size_t missing() const noexcept;

 private:
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;  // start of the undecoded bytes
  std::size_t end_ = 0;    // end of the received bytes
};

}  // namespace fhdnn::wire
