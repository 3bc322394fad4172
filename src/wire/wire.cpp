#include "wire/wire.hpp"

#include <algorithm>
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

// Checks the CRC of the frame at `data` after check_header passed; the
// caller guarantees the payload is fully buffered.
FrameView view_frame(const std::uint8_t* data, const Header& h,
                     std::size_t base) {
  const std::uint8_t* payload = data + kFrameHeaderSize;
  const auto len = static_cast<std::size_t>(h.len);
  if (util::crc32(payload, len) != h.crc) {
    throw DecodeError(DecodeErrorKind::kCrc, base + 16,
                      "frame payload failed CRC-32");
  }
  return {static_cast<MsgType>(h.type), {payload, len}};
}

}  // namespace

bool msg_type_known(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(MsgType::kHello) &&
         t <= static_cast<std::uint16_t>(MsgType::kShutdown);
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::span<const std::uint8_t> payload) {
  util::ByteWriter w(std::move(out));
  const std::size_t at = begin_frame(w, type);
  w.write_raw(payload.data(), payload.size());
  out = w.take();
  end_frame(out, at);
}

std::size_t begin_frame(util::ByteWriter& w, MsgType type) {
  const std::size_t at = w.size();
  w.write_raw(kMagic, sizeof(kMagic));
  w.write_u16(kWireVersion);
  w.write_u16(static_cast<std::uint16_t>(type));
  w.write_u64(0);  // payload length, patched by end_frame
  w.write_u32(0);  // payload CRC, patched by end_frame
  return at;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t frame_at) {
  const std::size_t payload = frame_at + kFrameHeaderSize;
  FHDNN_CHECK(payload <= out.size(), "end_frame without begin_frame");
  const std::uint64_t len = out.size() - payload;
  FHDNN_CHECK(len <= kMaxFrameBytes,
              "frame payload of " << len << " bytes exceeds cap");
  const std::uint32_t crc = util::crc32(out.data() + payload, len);
  std::memcpy(out.data() + frame_at + 8, &len, sizeof(len));
  std::memcpy(out.data() + frame_at + 16, &crc, sizeof(crc));
}

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + payload.size());
  append_frame(out, type, payload);
  return out;
}

FrameView decode_frame(const std::uint8_t* data, std::size_t len) {
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
  return view_frame(data, h, 0);
}

// ---------------------------------------------------------------------------
// FrameAssembler

std::span<std::uint8_t> FrameAssembler::prepare(std::size_t min_bytes) {
  if (begin_ == end_) begin_ = end_ = 0;  // drained: rewind, nothing moves
  if (capacity_ - end_ < min_bytes) {
    const std::size_t live = end_ - begin_;
    if (capacity_ - live >= min_bytes) {
      std::memmove(buf_.get(), buf_.get() + begin_, live);
    } else {
      const std::size_t grown = std::max(live + min_bytes, 2 * capacity_);
      // Uninitialized: every byte is received into before it is read.
      auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(grown);
      if (live > 0) std::memcpy(bigger.get(), buf_.get() + begin_, live);
      buf_ = std::move(bigger);
      capacity_ = grown;
    }
    begin_ = 0;
    end_ = live;
  }
  return {buf_.get() + end_, capacity_ - end_};
}

void FrameAssembler::commit(std::size_t n) {
  FHDNN_CHECK(n <= capacity_ - end_, "commit of " << n << " bytes past the "
                                                  << capacity_ - end_
                                                  << " prepared");
  end_ += n;
}

std::optional<FrameView> FrameAssembler::next() {
  const std::size_t avail = end_ - begin_;
  if (avail < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* head = buf_.get() + begin_;
  const Header h = check_header(head, begin_);
  if (avail - kFrameHeaderSize < h.len) return std::nullopt;
  const FrameView f = view_frame(head, h, begin_);
  begin_ += kFrameHeaderSize + static_cast<std::size_t>(h.len);
  return f;
}

std::size_t FrameAssembler::missing() const noexcept {
  const std::size_t avail = end_ - begin_;
  if (avail < kFrameHeaderSize) return kFrameHeaderSize - avail;
  std::uint64_t len = 0;
  std::memcpy(&len, buf_.get() + begin_ + 8, sizeof(len));
  if (len > kMaxFrameBytes) return 0;  // next() rejects the header
  const std::size_t total = kFrameHeaderSize + static_cast<std::size_t>(len);
  return total > avail ? total - avail : 0;
}

}  // namespace fhdnn::wire
