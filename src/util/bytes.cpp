#include "util/bytes.hpp"

#include <cstring>

#include "util/simd.hpp"

namespace fhdnn::util {
namespace {

const char* kind_name(DecodeErrorKind kind) {
  switch (kind) {
    case DecodeErrorKind::kIo: return "io";
    case DecodeErrorKind::kFormat: return "format";
    case DecodeErrorKind::kVersion: return "version";
    case DecodeErrorKind::kType: return "type";
    case DecodeErrorKind::kCrc: return "crc";
    case DecodeErrorKind::kTruncated: return "truncated";
    case DecodeErrorKind::kSchema: return "schema";
  }
  return "unknown";
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  return ~simd::kernels().crc32_update(
      0xFFFFFFFFU, static_cast<const std::uint8_t*>(data), len);
}

DecodeError::DecodeError(DecodeErrorKind kind, std::size_t byte_offset,
                         const std::string& message)
    : Error("decode error (" + std::string(kind_name(kind)) + ") at byte " +
            std::to_string(byte_offset) + ": " + message),
      kind_(kind),
      byte_offset_(byte_offset) {}

// ---------------------------------------------------------------------------
// ByteWriter

void ByteWriter::write_raw(const void* data, std::size_t len) {
  if (len == 0) return;  // empty vectors hand over a null data()
  const auto* p = static_cast<const std::uint8_t*>(data);
  out_.insert(out_.end(), p, p + len);
}

void ByteWriter::patch(std::size_t at, const void* data, std::size_t len) {
  FHDNN_CHECK(at <= out_.size() && len <= out_.size() - at,
              "patch of " << len << " bytes at " << at << " past the "
                          << out_.size() << " written");
  if (len != 0) std::memcpy(out_.data() + at, data, len);
}

void ByteWriter::write_u8(std::uint8_t v) { write_raw(&v, sizeof(v)); }
void ByteWriter::write_u16(std::uint16_t v) { write_raw(&v, sizeof(v)); }
void ByteWriter::write_u32(std::uint32_t v) { write_raw(&v, sizeof(v)); }
void ByteWriter::write_u64(std::uint64_t v) { write_raw(&v, sizeof(v)); }
void ByteWriter::write_i64(std::int64_t v) { write_raw(&v, sizeof(v)); }
void ByteWriter::write_f64(double v) { write_raw(&v, sizeof(v)); }

void ByteWriter::write_str(std::string_view s) {
  write_u64(s.size());
  write_raw(s.data(), s.size());
}

void ByteWriter::write_blob(std::span<const std::uint8_t> b) {
  write_u64(b.size());
  write_raw(b.data(), b.size());
}

void ByteWriter::write_floats(const std::vector<float>& v) {
  write_u64(v.size());
  write_raw(v.data(), v.size() * sizeof(float));
}

void ByteWriter::write_u64s(const std::vector<std::uint64_t>& v) {
  write_u64(v.size());
  write_raw(v.data(), v.size() * sizeof(std::uint64_t));
}

void ByteWriter::write_sizes(const std::vector<std::size_t>& v) {
  write_u64(v.size());
  for (const std::size_t s : v) write_u64(static_cast<std::uint64_t>(s));
}

void ByteWriter::write_flags(const std::vector<char>& v) {
  write_u64(v.size());
  write_raw(v.data(), v.size());
}

// ---------------------------------------------------------------------------
// ByteReader

const std::uint8_t* ByteReader::take(std::uint64_t count, std::size_t width) {
  if (count > remaining() / width) {
    throw DecodeError(DecodeErrorKind::kTruncated, offset(),
                      "read of " + std::to_string(count) + " x " +
                          std::to_string(width) + " bytes overruns the " +
                          std::to_string(remaining()) + " bytes left");
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += static_cast<std::size_t>(count) * width;
  return p;
}

template <typename T>
T ByteReader::read_pod() {
  T v{};
  std::memcpy(&v, take(1, sizeof(T)), sizeof(T));
  return v;
}

std::uint8_t ByteReader::read_u8() { return read_pod<std::uint8_t>(); }
std::uint16_t ByteReader::read_u16() { return read_pod<std::uint16_t>(); }
std::uint32_t ByteReader::read_u32() { return read_pod<std::uint32_t>(); }
std::uint64_t ByteReader::read_u64() { return read_pod<std::uint64_t>(); }
std::int64_t ByteReader::read_i64() { return read_pod<std::int64_t>(); }
double ByteReader::read_f64() { return read_pod<double>(); }

std::string ByteReader::read_str() {
  const std::uint64_t n = read_u64();
  const std::uint8_t* p = take(n, 1);
  return {reinterpret_cast<const char*>(p), static_cast<std::size_t>(n)};
}

std::span<const std::uint8_t> ByteReader::read_blob() {
  const std::uint64_t n = read_u64();
  const std::uint8_t* p = take(n, 1);
  return {p, static_cast<std::size_t>(n)};
}

std::vector<float> ByteReader::read_floats() {
  const std::uint64_t n = read_u64();
  const std::uint8_t* p = take(n, sizeof(float));
  std::vector<float> v(static_cast<std::size_t>(n));
  if (n != 0) std::memcpy(v.data(), p, v.size() * sizeof(float));
  return v;
}

std::vector<std::uint64_t> ByteReader::read_u64s() {
  const std::uint64_t n = read_u64();
  const std::uint8_t* p = take(n, sizeof(std::uint64_t));
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  if (n != 0) std::memcpy(v.data(), p, v.size() * sizeof(std::uint64_t));
  return v;
}

std::vector<std::size_t> ByteReader::read_sizes() {
  const std::uint64_t n = read_u64();
  const std::uint8_t* p = take(n, sizeof(std::uint64_t));
  std::vector<std::size_t> v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint64_t s = 0;
    std::memcpy(&s, p + i * sizeof(s), sizeof(s));
    v[i] = static_cast<std::size_t>(s);
  }
  return v;
}

std::vector<char> ByteReader::read_flags() {
  const std::uint64_t n = read_u64();
  const std::uint8_t* p = take(n, 1);
  return {p, p + n};
}

void ByteReader::finish() const {
  if (pos_ != size_) {
    throw DecodeError(DecodeErrorKind::kSchema, offset(),
                      std::to_string(remaining()) + " unconsumed bytes");
  }
}

}  // namespace fhdnn::util
