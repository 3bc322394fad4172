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
// Typed fields inside a chunk use the one byte codec (util/bytes):
// SnapshotWriter is a ByteWriter and SnapshotReader a ByteReader over the
// open chunk's payload, so a save/load round-trip is bit-exact, the
// property the engine's hexfloat golden histories depend on.
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
// then only fail on what a CRC cannot catch: a count the chunk does not
// back (kTruncated) or a schema mismatch (kSchema), each a DecodeError
// with the offending byte offset.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace fhdnn::util {

/// Current snapshot format version.  Bump on any layout change; readers
/// reject other versions (kVersion) rather than guessing.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Builds a snapshot image in memory chunk by chunk, then commits it
/// atomically.  The typed writes are ByteWriter's and are only legal
/// between begin_chunk/end_chunk (a stray one is caught at the next chunk
/// boundary).  A writer is single-use: after commit() it must be discarded.
class SnapshotWriter : public ByteWriter {
 public:
  SnapshotWriter();

  void begin_chunk(std::string_view tag);  ///< tag must be exactly 4 bytes
  void end_chunk();

  /// Appends the END chunk and durably replaces `path` (see the protocol
  /// note above).  Returns the committed image size in bytes.
  std::size_t commit(const std::string& path);

  /// Appends the END chunk and returns the completed image in memory —
  /// the wire-transfer counterpart of commit() (state/update blobs embedded
  /// in fhdnnd frames, see src/wire/).  Single-use, like commit().
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  friend void append_image(std::vector<std::uint8_t>& out,
                           const std::function<void(SnapshotWriter&)>& fill);
  /// Writes the image after the bytes already in `out` (append_image).
  explicit SnapshotWriter(std::vector<std::uint8_t> out);

  using ByteWriter::take;  // an image leaves only through finish/commit

  void check_sealed() const;

  std::string tag_;
  std::size_t chunk_start_ = 0;  // frame offset of the open chunk
  std::size_t sealed_ = 0;       // image size after the last closed chunk
  bool in_chunk_ = false;
  bool committed_ = false;
};

/// Reads a snapshot image validated eagerly at open.  Chunks are consumed
/// strictly in file order: enter_chunk(tag) asserts the next chunk carries
/// the expected tag and points the ByteReader typed reads at its payload,
/// leave_chunk() asserts the payload was fully consumed.  Outside a chunk
/// the payload window is empty, so every typed read throws.
class SnapshotReader : public ByteReader {
 public:
  /// Loads and validates `path`; throws DecodeError on any defect.
  static SnapshotReader from_file(const std::string& path);

  /// from_file(path), falling back to `<path>.prev` when the primary
  /// snapshot is missing or fails validation (torn/corrupted write).
  static SnapshotReader open_with_fallback(const std::string& path);

  /// Validates an in-memory image it takes over.  `origin` labels error
  /// messages in place of a path.
  static SnapshotReader from_bytes(std::vector<std::uint8_t> image,
                                   std::string origin = "<memory>");

  /// Validates an image it borrows (a state/update blob inside a received
  /// fhdnnd frame): the same checks, DecodeError kinds and offsets as
  /// from_bytes, without a copy.  `image` must outlive the reader unchanged.
  static SnapshotReader borrow(std::span<const std::uint8_t> image,
                               std::string origin = "<memory>");

  // image_ and the payload window point into data_ (or the borrowed
  // image), whose buffer a move carries along and a copy would not.
  SnapshotReader(SnapshotReader&&) noexcept = default;
  SnapshotReader& operator=(SnapshotReader&&) noexcept = default;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  /// The file actually loaded (primary or `.prev` fallback).
  [[nodiscard]] const std::string& source_path() const noexcept {
    return path_;
  }

  /// Tag of the next unconsumed chunk ("END " at the terminator).
  [[nodiscard]] std::string peek_tag() const;
  void enter_chunk(std::string_view tag);
  void leave_chunk();

 private:
  SnapshotReader() = default;
  void validate();
  [[noreturn]] void fail(DecodeErrorKind kind, std::size_t offset,
                         const std::string& message) const;

  std::vector<std::uint8_t> data_;     // the owned image; empty if borrowed
  std::span<const std::uint8_t> image_;  // the image being read
  std::string path_;
  std::uint32_t version_ = 0;
  std::size_t next_chunk_ = 0;  // offset of the next unconsumed chunk frame
  bool in_chunk_ = false;
};

/// Appends one complete snapshot image to `out` in place: the header, the
/// chunks `fill` writes, and the END chunk, so an image bound for a wire
/// frame is written once, where it is sent from.  If `fill` throws, `out`
/// is restored to the bytes it held on entry.
void append_image(std::vector<std::uint8_t>& out,
                  const std::function<void(SnapshotWriter&)>& fill);

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
