#include "wire/wire.hpp"

#include <cstring>
#include <sstream>
#include <string>
#include <utility>

namespace fhdnn::wire {
namespace {

using util::DecodeError;
using util::DecodeErrorKind;

constexpr char kMagic[4] = {'F', 'H', 'D', 'W'};

struct Header {
  std::uint16_t type = 0;
  std::uint64_t len = 0;  // payload bytes
  std::uint32_t crc = 0;  // payload CRC-32
};

// Validates the frame header at `data` (which must hold >= kFrameHeaderSize
// bytes).  `base` offsets error positions for streaming callers.
Header check_header(const std::uint8_t* data, std::size_t base) {
  util::ByteReader r(data, kFrameHeaderSize, base);
  if (std::memcmp(r.read_raw(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    throw DecodeError(DecodeErrorKind::kFormat, base,
                      "bad frame magic (want \"FHDW\")");
  }
  const std::uint16_t version = r.read_u16();
  if (version != kWireVersion) {
    std::ostringstream os;
    os << "wire version " << version << " (want " << kWireVersion << ")";
    throw DecodeError(DecodeErrorKind::kVersion, base + 4, os.str());
  }
  Header h;
  h.type = r.read_u16();
  if (!msg_type_known(h.type)) {
    std::ostringstream os;
    os << "unknown message type " << h.type;
    throw DecodeError(DecodeErrorKind::kType, base + 6, os.str());
  }
  h.len = r.read_u64();
  if (h.len > kMaxFrameBytes) {
    std::ostringstream os;
    os << "frame payload of " << h.len << " bytes exceeds the "
       << kMaxFrameBytes << "-byte cap";
    throw DecodeError(DecodeErrorKind::kFormat, base + 8, os.str());
  }
  h.crc = r.read_u32();
  return h;
}

// Decodes the frame at `data` after check_header passed; the caller
// guarantees the payload is fully buffered.
Frame take_frame(const std::uint8_t* data, const Header& h, std::size_t base) {
  const std::uint8_t* payload = data + kFrameHeaderSize;
  const auto len = static_cast<std::size_t>(h.len);
  if (util::crc32(payload, len) != h.crc) {
    throw DecodeError(DecodeErrorKind::kCrc, base + 16,
                      "frame payload failed CRC-32");
  }
  Frame f;
  f.type = static_cast<MsgType>(h.type);
  f.payload.assign(payload, payload + len);
  return f;
}

}  // namespace

bool msg_type_known(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(MsgType::kHello) &&
         t <= static_cast<std::uint16_t>(MsgType::kShutdown);
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const std::vector<std::uint8_t>& payload) {
  FHDNN_CHECK(payload.size() <= kMaxFrameBytes,
              "frame payload of " << payload.size() << " bytes exceeds cap");
  util::ByteWriter w(std::move(out));
  w.write_raw(kMagic, sizeof(kMagic));
  w.write_u16(kWireVersion);
  w.write_u16(static_cast<std::uint16_t>(type));
  w.write_u64(payload.size());
  w.write_u32(util::crc32(payload.data(), payload.size()));
  w.write_raw(payload.data(), payload.size());
  out = w.take();
}

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + payload.size());
  append_frame(out, type, payload);
  return out;
}

Frame decode_frame(const std::uint8_t* data, std::size_t len) {
  if (len < kFrameHeaderSize) {
    throw DecodeError(DecodeErrorKind::kTruncated, len,
                      "frame shorter than the " +
                          std::to_string(kFrameHeaderSize) + "-byte header");
  }
  const Header h = check_header(data, 0);
  const std::size_t total = kFrameHeaderSize + h.len;
  if (len < total) {
    throw DecodeError(DecodeErrorKind::kTruncated, len,
                      "frame truncated: header claims " +
                          std::to_string(total) + " bytes, got " +
                          std::to_string(len));
  }
  if (len > total) {
    throw DecodeError(DecodeErrorKind::kSchema, total,
                      std::to_string(len - total) +
                          " trailing bytes after the frame");
  }
  return take_frame(data, h, 0);
}

// ---------------------------------------------------------------------------
// FrameAssembler

void FrameAssembler::feed(const std::uint8_t* data, std::size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

std::optional<Frame> FrameAssembler::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* head = buf_.data() + pos_;
  const Header h = check_header(head, pos_);
  if (avail < kFrameHeaderSize + h.len) return std::nullopt;
  Frame f = take_frame(head, h, pos_);
  pos_ += kFrameHeaderSize + static_cast<std::size_t>(h.len);
  compact();
  return f;
}

std::size_t FrameAssembler::buffered() const noexcept {
  return buf_.size() - pos_;
}

void FrameAssembler::compact() {
  // Drop consumed bytes once they dominate the buffer, keeping feed()
  // amortized O(1) without re-shifting after every frame.
  if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

}  // namespace fhdnn::wire
