#pragma once
// The one byte codec of the codebase.
//
// Snapshot images (util/snapshot) and wire frames (src/wire) are thin
// framings over ByteWriter / ByteReader, so every typed field that crosses
// a disk or process boundary uses the encodings below:
//
//   - integers and IEEE-754 floats in native byte order (little-endian on
//     every supported target); floats and doubles as their raw bit
//     patterns, so a round-trip is bit-exact, NaN payloads and signed
//     zeros included (the property the golden histories depend on);
//   - strings, blobs and vectors as a u64 element count, then the elements.
//
// ByteReader bounds-checks every read, and checks every count against the
// bytes left before it allocates, so a hostile length prefix fails as a
// typed DecodeError instead of an overflow, a std::length_error or a
// std::bad_alloc. Every decode failure is one DecodeError carrying its
// kind and the byte offset where decoding stopped.
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fhdnn::util {

/// Reflected CRC-32 (polynomial 0xEDB88320), the one checksum of the
/// codebase: snapshot chunks, wire frames and ARQ channel frames all use
/// it. Runs the active tier's simd::Kernels::crc32_update.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len);

enum class DecodeErrorKind {
  kIo,         ///< open/read/write/rename/fsync failure
  kFormat,     ///< bad magic, malformed framing, trailing bytes after END
  kVersion,    ///< snapshot or wire format version mismatch
  kType,       ///< unknown wire message type
  kCrc,        ///< payload failed its CRC-32
  kTruncated,  ///< fewer bytes than a header, length or count claims
  kSchema,     ///< well-framed but inconsistent: wrong chunk tag or message
               ///< type, unconsumed bytes, out-of-range field, or state
               ///< incompatible with the running config
};

/// Typed decode failure carrying the byte offset where validation or
/// decoding stopped (0 when no position applies, e.g. I/O errors).
class DecodeError : public Error {
 public:
  DecodeError(DecodeErrorKind kind, std::size_t byte_offset,
              const std::string& message);

  [[nodiscard]] DecodeErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t byte_offset() const noexcept {
    return byte_offset_;
  }

 private:
  DecodeErrorKind kind_;
  std::size_t byte_offset_;
};

/// Append-only encoder into one buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends after the bytes already in `out`; take() hands them back.
  explicit ByteWriter(std::vector<std::uint8_t> out) : out_(std::move(out)) {}

  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);  ///< raw IEEE bits
  void write_str(std::string_view s);                   ///< u64 length, bytes
  void write_blob(std::span<const std::uint8_t> b);     ///< u64 length, bytes
  void write_floats(const std::vector<float>& v);       ///< u64 count, raw bits
  void write_u64s(const std::vector<std::uint64_t>& v);
  void write_sizes(const std::vector<std::size_t>& v);  ///< each as a u64
  void write_flags(const std::vector<char>& v);         ///< one byte each

  /// Unprefixed bytes: magics, tags, a frame's payload.
  void write_raw(const void* data, std::size_t len);
  /// Overwrites `len` bytes already written at `at`: a length or CRC that
  /// was reserved before the bytes it describes.
  void patch(std::size_t at, const void* data, std::size_t len);

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return out_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Decoder over `size` bytes at `data` (not owned). Every read is
/// bounds-checked and throws DecodeError (kTruncated) instead of reading
/// past the end; finish() rejects unconsumed bytes (kSchema). Reported
/// offsets are `base` plus the position inside the window, so a reader over
/// one chunk or payload reports offsets into the enclosing image or stream.
class ByteReader {
 public:
  ByteReader() = default;  ///< empty: every read throws
  ByteReader(const std::uint8_t* data, std::size_t size, std::size_t base = 0)
      : data_(data), size_(size), base_(base) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  std::string read_str();
  /// The blob in place, like read_raw: valid as long as the buffer is.
  std::span<const std::uint8_t> read_blob();
  std::vector<float> read_floats();
  std::vector<std::uint64_t> read_u64s();
  std::vector<std::size_t> read_sizes();
  std::vector<char> read_flags();

  /// The next `len` unprefixed bytes, in place (valid as long as the
  /// underlying buffer is).
  const std::uint8_t* read_raw(std::size_t len) { return take(len, 1); }

  /// Asserts every byte was consumed.
  void finish() const;

  [[nodiscard]] std::size_t offset() const noexcept { return base_ + pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  /// Bounds check for `count` elements of `width` bytes, done without
  /// multiplying so no count can wrap past it; returns their first byte.
  const std::uint8_t* take(std::uint64_t count, std::size_t width);
  template <typename T>
  T read_pod();

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t base_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace fhdnn::util
