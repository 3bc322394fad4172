#include "wire/wire.hpp"

#include <cstring>
#include <sstream>

#include "util/snapshot.hpp"  // util::crc32

namespace fhdnn::wire {
namespace {

constexpr char kMagic[4] = {'F', 'H', 'D', 'W'};

const char* kind_name(WireErrorKind kind) {
  switch (kind) {
    case WireErrorKind::kFormat: return "format";
    case WireErrorKind::kVersion: return "version";
    case WireErrorKind::kType: return "type";
    case WireErrorKind::kCrc: return "crc";
    case WireErrorKind::kTruncated: return "truncated";
    case WireErrorKind::kSchema: return "schema";
  }
  return "?";
}

[[noreturn]] void fail(WireErrorKind kind, std::size_t offset,
                       const std::string& message) {
  throw WireError(kind, offset, message);
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const auto old = out.size();
  out.resize(old + sizeof(T));
  std::memcpy(out.data() + old, &v, sizeof(T));
}

// Validates a frame header at `data` (which must hold >= kFrameHeaderSize
// bytes) and returns the payload length.  `base` offsets error positions
// for streaming callers.
std::uint64_t check_header(const std::uint8_t* data, std::size_t base) {
  if (std::memcmp(data, kMagic, 4) != 0) {
    fail(WireErrorKind::kFormat, base, "bad frame magic (want \"FHDW\")");
  }
  std::uint16_t version = 0;
  std::memcpy(&version, data + 4, 2);
  if (version != kWireVersion) {
    std::ostringstream os;
    os << "wire version " << version << " (want " << kWireVersion << ")";
    fail(WireErrorKind::kVersion, base + 4, os.str());
  }
  std::uint16_t type = 0;
  std::memcpy(&type, data + 6, 2);
  if (!msg_type_known(type)) {
    std::ostringstream os;
    os << "unknown message type " << type;
    fail(WireErrorKind::kType, base + 6, os.str());
  }
  std::uint64_t len = 0;
  std::memcpy(&len, data + 8, 8);
  if (len > kMaxFrameBytes) {
    std::ostringstream os;
    os << "frame payload of " << len << " bytes exceeds the " << kMaxFrameBytes
       << "-byte cap";
    fail(WireErrorKind::kFormat, base + 8, os.str());
  }
  return len;
}

// Decodes the frame at `data` after check_header passed; `len` is the
// payload length; the caller guarantees the payload is fully buffered.
Frame take_frame(const std::uint8_t* data, std::uint64_t len,
                 std::size_t base) {
  std::uint16_t type = 0;
  std::memcpy(&type, data + 6, 2);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data + 16, 4);
  const std::uint8_t* payload = data + kFrameHeaderSize;
  const std::uint32_t actual_crc =
      util::crc32(payload, static_cast<std::size_t>(len));
  if (actual_crc != stored_crc) {
    fail(WireErrorKind::kCrc, base + 16, "frame payload failed CRC-32");
  }
  Frame f;
  f.type = static_cast<MsgType>(type);
  f.payload.assign(payload, payload + len);
  return f;
}

}  // namespace

bool msg_type_known(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(MsgType::kHello) &&
         t <= static_cast<std::uint16_t>(MsgType::kArqFrame);
}

WireError::WireError(WireErrorKind kind, std::size_t byte_offset,
                     const std::string& message)
    : Error("wire error (" + std::string(kind_name(kind)) + ") at byte " +
            std::to_string(byte_offset) + ": " + message),
      kind_(kind),
      byte_offset_(byte_offset) {}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  const std::vector<std::uint8_t>& payload) {
  FHDNN_CHECK(payload.size() <= kMaxFrameBytes,
              "frame payload of " << payload.size() << " bytes exceeds cap");
  out.insert(out.end(), kMagic, kMagic + 4);
  put<std::uint16_t>(out, kWireVersion);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(type));
  put<std::uint64_t>(out, payload.size());
  put<std::uint32_t>(out, util::crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
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
    fail(WireErrorKind::kTruncated, len,
         "frame shorter than the " + std::to_string(kFrameHeaderSize) +
             "-byte header");
  }
  const std::uint64_t payload_len = check_header(data, 0);
  const std::size_t total = kFrameHeaderSize + payload_len;
  if (len < total) {
    fail(WireErrorKind::kTruncated, len,
         "frame truncated: header claims " + std::to_string(total) +
             " bytes, got " + std::to_string(len));
  }
  if (len > total) {
    fail(WireErrorKind::kSchema, total,
         std::to_string(len - total) + " trailing bytes after the frame");
  }
  return take_frame(data, payload_len, 0);
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
  const std::uint64_t payload_len = check_header(head, pos_);
  if (avail < kFrameHeaderSize + payload_len) return std::nullopt;
  Frame f = take_frame(head, payload_len, pos_);
  pos_ += kFrameHeaderSize + static_cast<std::size_t>(payload_len);
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

// ---------------------------------------------------------------------------
// PayloadWriter

void PayloadWriter::u8(std::uint8_t v) { put(out_, v); }
void PayloadWriter::u16(std::uint16_t v) { put(out_, v); }
void PayloadWriter::u32(std::uint32_t v) { put(out_, v); }
void PayloadWriter::u64(std::uint64_t v) { put(out_, v); }
void PayloadWriter::i64(std::int64_t v) { put(out_, v); }

void PayloadWriter::f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, 4);
  put(out_, bits);
}

void PayloadWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put(out_, bits);
}

void PayloadWriter::str(std::string_view s) {
  u64(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void PayloadWriter::blob(const std::vector<std::uint8_t>& b) {
  u64(b.size());
  out_.insert(out_.end(), b.begin(), b.end());
}

void PayloadWriter::floats(const std::vector<float>& v) {
  u64(v.size());
  const auto old = out_.size();
  out_.resize(old + v.size() * 4);
  if (!v.empty()) std::memcpy(out_.data() + old, v.data(), v.size() * 4);
}

// ---------------------------------------------------------------------------
// PayloadReader

void PayloadReader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    fail(WireErrorKind::kTruncated, pos_,
         "payload needs " + std::to_string(n) + " more bytes, has " +
             std::to_string(size_ - pos_));
  }
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t PayloadReader::u16() {
  need(2);
  std::uint16_t v = 0;
  std::memcpy(&v, data_ + pos_, 2);
  pos_ += 2;
  return v;
}

std::uint32_t PayloadReader::u32() {
  need(4);
  std::uint32_t v = 0;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  need(8);
  std::uint64_t v = 0;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

std::int64_t PayloadReader::i64() {
  return static_cast<std::int64_t>(u64());
}

float PayloadReader::f32() {
  const std::uint32_t bits = u32();
  float v = 0.0F;
  std::memcpy(&v, &bits, 4);
  return v;
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string PayloadReader::str() {
  const std::uint64_t n = u64();
  need(static_cast<std::size_t>(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<std::uint8_t> PayloadReader::blob() {
  const std::uint64_t n = u64();
  need(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
  pos_ += static_cast<std::size_t>(n);
  return b;
}

std::vector<float> PayloadReader::floats() {
  const std::uint64_t n = u64();
  if (n > (size_ - pos_) / 4) {  // overflow-safe form of need(n * 4)
    fail(WireErrorKind::kTruncated, pos_,
         "float array claims " + std::to_string(n) + " elements, only " +
             std::to_string((size_ - pos_) / 4) + " fit");
  }
  std::vector<float> v(static_cast<std::size_t>(n));
  if (n > 0) std::memcpy(v.data(), data_ + pos_, v.size() * 4);
  pos_ += static_cast<std::size_t>(n) * 4;
  return v;
}

void PayloadReader::finish() const {
  if (pos_ != size_) {
    fail(WireErrorKind::kSchema, pos_,
         std::to_string(size_ - pos_) + " trailing payload bytes");
  }
}

}  // namespace fhdnn::wire
