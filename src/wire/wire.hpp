// Versioned, CRC-32-framed binary wire format for the fhdnnd serving seam.
//
// Every message that crosses a Connection (src/net/) is one frame:
//
//   [4]  magic "FHDW"
//   [2]  wire version (u16) — readers reject other versions (kVersion)
//   [2]  message type  (u16) — unknown types rejected (kType)
//   [8]  payload length (u64)
//   [4]  CRC-32 of the payload (util/snapshot's reflected IEEE CRC-32,
//        the same function the ARQ channel frames use)
//   [n]  payload
//
// All integers and IEEE-754 floats travel in native byte order
// (little-endian on every supported target, matching tensor/io and
// util/snapshot) and floats/doubles as raw bit patterns, so a payload
// round-trip is bit-exact — the property the engine's golden-history
// equality over the wire depends on.
//
// Validation is eager and strict: decode_frame() rejects trailing bytes,
// PayloadReader::finish() rejects unconsumed payload, and every defect
// surfaces as a typed WireError carrying the kind and the byte offset where
// validation stopped.  Large nested blobs (protocol state, per-slot
// updates) are snapshot images — util/snapshot's chunk discipline validated
// by SnapshotReader::from_bytes — embedded as length-prefixed byte strings,
// so they carry their own per-chunk CRCs in addition to the frame CRC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

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
  kArqFrame = 7,     ///< standalone ARQ frame (channel/arq payload chunk)
};

/// True when `t` is a defined MsgType value.
[[nodiscard]] bool msg_type_known(std::uint16_t t);

enum class WireErrorKind {
  kFormat,     ///< bad magic or malformed framing / field encoding
  kVersion,    ///< wire version mismatch
  kType,       ///< unknown message type
  kCrc,        ///< payload failed its CRC-32
  kTruncated,  ///< fewer bytes than the framing claims
  kSchema,     ///< payload decoded but fields are inconsistent / trailing
};

/// Typed wire failure carrying the byte offset (within the frame or payload
/// being decoded) where validation stopped.
class WireError : public Error {
 public:
  WireError(WireErrorKind kind, std::size_t byte_offset,
            const std::string& message);

  [[nodiscard]] WireErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t byte_offset() const noexcept {
    return byte_offset_;
  }

 private:
  WireErrorKind kind_;
  std::size_t byte_offset_;
};

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
/// trailing bytes are rejected (kSchema).  Throws WireError on any defect.
[[nodiscard]] Frame decode_frame(const std::uint8_t* data, std::size_t len);

/// Incremental frame decoder for a byte stream.  feed() appends received
/// bytes; next() validates eagerly (header fields as soon as the header is
/// buffered, CRC once the payload is complete) and returns the next frame,
/// or nullopt when more bytes are needed.  Throws WireError on any defect;
/// after a throw the stream is unrecoverable by design (no resync — a
/// corrupt stream means a broken or hostile peer).
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

/// Serializes payload fields in wire order.  Same primitive encodings as
/// util/snapshot (native-endian, raw IEEE bits, u64 length prefixes).
class PayloadWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f32(float v);   ///< raw IEEE bits
  void f64(double v);  ///< raw IEEE bits
  void str(std::string_view s);                 ///< u64 length + bytes
  void blob(const std::vector<std::uint8_t>& b);  ///< u64 length + bytes
  void floats(const std::vector<float>& v);       ///< u64 count + raw bits

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Deserializes payload fields in wire order with eager bounds checks;
/// finish() rejects trailing bytes (kSchema).  Offsets in thrown WireErrors
/// are relative to the payload start.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}
  PayloadReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  float f32();
  double f64();
  std::string str();
  std::vector<std::uint8_t> blob();
  std::vector<float> floats();

  /// Asserts the payload was fully consumed.
  void finish() const;
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace fhdnn::wire
