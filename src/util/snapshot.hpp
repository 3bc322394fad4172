#pragma once
// Crash-consistent binary snapshots.
//
// A snapshot is a single file:
//
//   [8]  magic "FHDNSNAP"
//   [4]  format version (u32)
//   ...  chunks, each:  [4] tag  [8] payload length (u64)
//                       [4] CRC-32 of the payload  [len] payload
//   final chunk has tag "END " and an empty payload.
//
// All integers and IEEE-754 floats are stored in native byte order
// (little-endian on every supported target, matching tensor/io).  Floats
// and doubles are written as their raw bit patterns so a save/load
// round-trip is bit-exact — the property the engine's hexfloat golden
// histories depend on.
//
// Durability protocol (SnapshotWriter::commit / atomic_write_file):
//   1. write the full image to `<path>.tmp` and fsync it,
//   2. rename the current `<path>` (if any) to `<path>.prev`,
//   3. rename `<path>.tmp` over `<path>`,
//   4. fsync the parent directory.
// A crash at any point leaves either the new generation, the previous
// generation, or both on disk; SnapshotReader::open_with_fallback tries
// `<path>` first and falls back to `<path>.prev` when the primary is
// missing, truncated, or fails CRC validation.
//
// SnapshotReader validates the whole file eagerly at open: magic, version,
// every chunk's length and CRC, and the END terminator.  Typed reads can
// therefore only fail on logical-schema mismatches, which surface as
// SnapshotError with the offending byte offset.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace fhdnn::util {

/// Reflected CRC-32 (polynomial 0xEDB88320), the one checksum of the
/// codebase: snapshot chunks, wire frames and ARQ channel frames all use
/// it. Runs the active tier's simd::Kernels::crc32_update.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len);

/// Current snapshot format version.  Bump on any layout change; readers
/// reject other versions (kVersion) rather than guessing.
inline constexpr std::uint32_t kSnapshotVersion = 1;

enum class SnapshotErrorKind {
  kIo,         ///< open/read/write/rename/fsync failure
  kFormat,     ///< bad magic, malformed framing, trailing bytes
  kVersion,    ///< format version mismatch
  kCrc,        ///< chunk payload failed its CRC-32
  kTruncated,  ///< file or chunk shorter than its framing claims
  kState,      ///< schema mismatch: wrong chunk tag, unconsumed payload,
               ///< or state incompatible with the running config
};

/// Typed snapshot failure carrying the byte offset where validation or
/// decoding stopped (0 when no file position applies, e.g. I/O errors).
class SnapshotError : public Error {
 public:
  SnapshotError(SnapshotErrorKind kind, std::size_t byte_offset,
                const std::string& message);

  [[nodiscard]] SnapshotErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t byte_offset() const noexcept {
    return byte_offset_;
  }

 private:
  SnapshotErrorKind kind_;
  std::size_t byte_offset_;
};

/// Builds a snapshot image in memory chunk by chunk, then commits it
/// atomically.  Typed writes are only legal between begin_chunk/end_chunk.
/// A writer is single-use: after commit() it must be discarded.
class SnapshotWriter {
 public:
  SnapshotWriter();

  void begin_chunk(std::string_view tag);  ///< tag must be exactly 4 bytes
  void end_chunk();

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);   ///< raw IEEE bits
  void write_f64(double v);  ///< raw IEEE bits
  void write_str(std::string_view s);
  void write_bytes(const void* data, std::size_t len);

  // Length-prefixed (u64 count) vector helpers.
  void write_floats(const std::vector<float>& v);
  void write_doubles(const std::vector<double>& v);
  void write_u64s(const std::vector<std::uint64_t>& v);
  void write_sizes(const std::vector<std::size_t>& v);
  void write_flags(const std::vector<char>& v);

  /// Bytes accumulated so far (header + closed chunks + open chunk).
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Appends the END chunk and durably replaces `path` (see the protocol
  /// note above).  Returns the committed image size in bytes.
  std::size_t commit(const std::string& path);

  /// Appends the END chunk and returns the completed image in memory —
  /// the wire-transfer counterpart of commit() (state/update blobs embedded
  /// in fhdnnd frames, see src/wire/).  Single-use, like commit().
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  void chunk_bytes(const void* data, std::size_t len);

  std::vector<std::uint8_t> out_;    // header + completed chunks
  std::vector<std::uint8_t> chunk_;  // payload of the open chunk
  std::string tag_;
  bool in_chunk_ = false;
  bool committed_ = false;
};

/// Reads a snapshot image validated eagerly at open.  Chunks are consumed
/// strictly in file order: enter_chunk(tag) asserts the next chunk carries
/// the expected tag, leave_chunk() asserts the payload was fully consumed.
class SnapshotReader {
 public:
  /// Loads and validates `path`; throws SnapshotError on any defect.
  static SnapshotReader from_file(const std::string& path);

  /// from_file(path), falling back to `<path>.prev` when the primary
  /// snapshot is missing or fails validation (torn/corrupted write).
  static SnapshotReader open_with_fallback(const std::string& path);

  /// Validates an in-memory image (e.g. a state/update blob received over
  /// the fhdnnd wire).  `origin` labels error messages in place of a path.
  static SnapshotReader from_bytes(std::vector<std::uint8_t> image,
                                   std::string origin = "<memory>");

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  /// The file actually loaded (primary or `.prev` fallback).
  [[nodiscard]] const std::string& source_path() const noexcept {
    return path_;
  }

  /// Tag of the next unconsumed chunk ("END " at the terminator).
  [[nodiscard]] std::string peek_tag() const;
  void enter_chunk(std::string_view tag);
  void leave_chunk();

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_str();
  void read_bytes(void* out, std::size_t len);

  std::vector<float> read_floats();
  std::vector<double> read_doubles();
  std::vector<std::uint64_t> read_u64s();
  std::vector<std::size_t> read_sizes();
  std::vector<char> read_flags();

 private:
  SnapshotReader() = default;
  void validate();
  [[noreturn]] void fail(SnapshotErrorKind kind, std::size_t offset,
                         const std::string& message) const;
  void need(std::size_t len);  // bounds check inside the open chunk

  std::vector<std::uint8_t> data_;
  std::string path_;
  std::uint32_t version_ = 0;
  std::size_t cursor_ = 0;     // absolute offset of the next read
  std::size_t chunk_end_ = 0;  // absolute end of the open chunk's payload
  bool in_chunk_ = false;
};

/// Anything that can round-trip its full deterministic state through a
/// snapshot.  load() must leave the object bit-identical to the instance
/// that produced save() — including derived caches that feed FP results.
class Snapshotable {
 public:
  virtual ~Snapshotable() = default;
  virtual void save(SnapshotWriter& w) const = 0;
  virtual void load(SnapshotReader& r) = 0;
};

/// Durable whole-file replace: write `<path>.tmp`, fsync, rename over
/// `path` (keeping `<path>.prev` only when keep_previous is set), fsync the
/// parent directory.  Readers never observe a torn file.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t len, bool keep_previous);

/// atomic_write_file for text artifacts (bench JSON): no `.prev` rotation.
void atomic_write_text(const std::string& path, std::string_view text);

}  // namespace fhdnn::util
