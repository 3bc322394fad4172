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
// chunk discipline validated by SnapshotReader::from_bytes — embedded as
// length-prefixed byte strings, so they carry their own per-chunk CRCs in
// addition to the frame CRC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
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

/// A decoded frame: type + validated payload bytes.
struct Frame {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> payload;
};

/// Frame header size in bytes (magic + version + type + length + CRC).
inline constexpr std::size_t kFrameHeaderSize = 4 + 2 + 2 + 8 + 4;

/// Append one encoded frame (header + payload) to `out` in place, the way
/// MessageChannel::send queues a frame without a full-frame temporary.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const std::vector<std::uint8_t>& payload);

/// Encode one frame (header + payload) into a fresh buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload);

/// Strict one-shot decode: `data` must hold exactly one valid frame —
/// trailing bytes are rejected (kSchema).  Throws util::DecodeError on any
/// defect.
[[nodiscard]] Frame decode_frame(const std::uint8_t* data, std::size_t len);

/// Incremental frame decoder for a byte stream.  feed() appends received
/// bytes; next() validates eagerly (header fields as soon as the header is
/// buffered, CRC once the payload is complete) and returns the next frame,
/// or nullopt when more bytes are needed.  Throws util::DecodeError on any
/// defect; after a throw the stream is unrecoverable by design (no resync —
/// a corrupt stream means a broken or hostile peer).
class FrameAssembler {
 public:
  void feed(const std::uint8_t* data, std::size_t len);
  [[nodiscard]] std::optional<Frame> next();
  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const noexcept;

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // start of the undecoded region within buf_
};

}  // namespace fhdnn::wire
