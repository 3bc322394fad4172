#include "util/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace fhdnn::util {
namespace {

constexpr char kMagic[8] = {'F', 'H', 'D', 'N', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t);
// Chunk frame: 4-byte tag, u64 payload length, u32 payload CRC.
constexpr std::size_t kFrameSize = 4 + sizeof(std::uint64_t) + sizeof(std::uint32_t);

[[noreturn]] void throw_io(const std::string& what) {
  throw DecodeError(DecodeErrorKind::kIo, 0,
                    what + ": " + std::strerror(errno));
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);  // NOLINT
  if (fd < 0) {
    return;  // best effort: some filesystems refuse directory opens
  }
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter() : SnapshotWriter(std::vector<std::uint8_t>{}) {}

SnapshotWriter::SnapshotWriter(std::vector<std::uint8_t> out)
    : ByteWriter(std::move(out)) {
  write_raw(kMagic, sizeof(kMagic));
  write_u32(kSnapshotVersion);
  sealed_ = size();
}

void SnapshotWriter::check_sealed() const {
  FHDNN_CHECK(size() == sealed_,
              "snapshot write outside begin_chunk/end_chunk ("
                  << size() - sealed_ << " stray bytes)");
}

void SnapshotWriter::begin_chunk(std::string_view tag) {
  FHDNN_CHECK(!committed_, "SnapshotWriter reused after commit");
  FHDNN_CHECK(!in_chunk_, "begin_chunk while chunk '" << tag_ << "' is open");
  FHDNN_CHECK(tag.size() == 4, "chunk tag must be 4 bytes, got '" << tag << "'");
  check_sealed();
  tag_.assign(tag);
  chunk_start_ = size();
  write_raw(tag.data(), 4);
  write_u64(0);  // payload length, patched by end_chunk
  write_u32(0);  // payload CRC, patched by end_chunk
  in_chunk_ = true;
}

void SnapshotWriter::end_chunk() {
  FHDNN_CHECK(in_chunk_, "end_chunk without begin_chunk");
  const std::size_t payload = chunk_start_ + kFrameSize;
  const auto len = static_cast<std::uint64_t>(size() - payload);
  patch(chunk_start_ + 4, &len, sizeof(len));
  const std::uint32_t crc = crc32(data() + payload, size() - payload);
  patch(chunk_start_ + 12, &crc, sizeof(crc));
  sealed_ = size();
  in_chunk_ = false;
}

std::vector<std::uint8_t> SnapshotWriter::finish() {
  FHDNN_CHECK(!committed_, "SnapshotWriter reused after commit/finish");
  FHDNN_CHECK(!in_chunk_, "finish with chunk '" << tag_ << "' still open");
  begin_chunk("END ");
  end_chunk();
  committed_ = true;
  return take();
}

std::size_t SnapshotWriter::commit(const std::string& path) {
  const std::vector<std::uint8_t> image = finish();
  atomic_write_file(path, image.data(), image.size(), /*keep_previous=*/true);
  return image.size();
}

void append_image(std::vector<std::uint8_t>& out,
                  const std::function<void(SnapshotWriter&)>& fill) {
  const std::size_t start = out.size();
  SnapshotWriter w(std::move(out));
  try {
    fill(w);
    out = w.finish();
  } catch (...) {
    out = w.take();
    out.resize(start);
    throw;
  }
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  SnapshotReader reader;
  reader.path_ = path;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw DecodeError(DecodeErrorKind::kIo, 0, "cannot open " + path);
  }
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  reader.data_.resize(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(reader.data_.data()), size);
  }
  if (!in) {
    throw DecodeError(DecodeErrorKind::kIo, 0, "cannot read " + path);
  }
  reader.image_ = reader.data_;
  reader.validate();
  return reader;
}

SnapshotReader SnapshotReader::from_bytes(std::vector<std::uint8_t> image,
                                          std::string origin) {
  SnapshotReader reader;
  reader.path_ = std::move(origin);
  reader.data_ = std::move(image);
  reader.image_ = reader.data_;
  reader.validate();
  return reader;
}

SnapshotReader SnapshotReader::borrow(std::span<const std::uint8_t> image,
                                      std::string origin) {
  SnapshotReader reader;
  reader.path_ = std::move(origin);
  reader.image_ = image;
  reader.validate();
  return reader;
}

SnapshotReader SnapshotReader::open_with_fallback(const std::string& path) {
  try {
    return from_file(path);
  } catch (const DecodeError& primary) {
    try {
      return from_file(path + ".prev");
    } catch (const DecodeError& fallback) {
      throw DecodeError(DecodeErrorKind::kIo, 0,
                        "no usable snapshot generation; primary: " +
                            std::string(primary.what()) +
                            "; previous: " + std::string(fallback.what()));
    }
  }
}

void SnapshotReader::fail(DecodeErrorKind kind, std::size_t offset,
                          const std::string& message) const {
  throw DecodeError(kind, offset, message + " (" + path_ + ")");
}

void SnapshotReader::validate() {
  if (image_.size() < kHeaderSize) {
    fail(DecodeErrorKind::kTruncated, image_.size(),
         "file shorter than the snapshot header");
  }
  ByteReader r(image_.data(), image_.size());
  if (std::memcmp(r.read_raw(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    fail(DecodeErrorKind::kFormat, 0, "bad magic, not a snapshot file");
  }
  version_ = r.read_u32();
  if (version_ != kSnapshotVersion) {
    fail(DecodeErrorKind::kVersion, sizeof(kMagic),
         "unsupported snapshot version " + std::to_string(version_));
  }
  bool saw_end = false;
  while (!saw_end) {
    const std::size_t off = r.offset();
    if (r.remaining() < kFrameSize) {
      fail(DecodeErrorKind::kTruncated, off, "chunk frame cut short");
    }
    const std::string tag(reinterpret_cast<const char*>(r.read_raw(4)), 4);
    const std::uint64_t len = r.read_u64();
    const std::uint32_t crc = r.read_u32();
    if (len > r.remaining()) {
      fail(DecodeErrorKind::kTruncated, off + 4,
           "chunk payload extends past end of file");
    }
    const auto n = static_cast<std::size_t>(len);
    if (crc32(r.read_raw(n), n) != crc) {
      fail(DecodeErrorKind::kCrc, off + 12,
           "chunk '" + tag + "' failed CRC validation");
    }
    saw_end = tag == "END ";
  }
  if (r.remaining() != 0) {
    fail(DecodeErrorKind::kFormat, r.offset(),
         "trailing bytes after END chunk");
  }
  next_chunk_ = kHeaderSize;
}

std::string SnapshotReader::peek_tag() const {
  FHDNN_CHECK(!in_chunk_, "peek_tag inside an open chunk");
  // validate() guarantees a well-formed chunk (ending with END) there.
  return {reinterpret_cast<const char*>(image_.data() + next_chunk_), 4};
}

void SnapshotReader::enter_chunk(std::string_view tag) {
  FHDNN_CHECK(!in_chunk_, "enter_chunk inside an open chunk");
  const std::string next = peek_tag();
  if (next != tag) {
    fail(DecodeErrorKind::kSchema, next_chunk_,
         "expected chunk '" + std::string(tag) + "', found '" + next + "'");
  }
  ByteReader frame(image_.data() + next_chunk_ + 4, kFrameSize - 4);
  const auto len = static_cast<std::size_t>(frame.read_u64());
  const std::size_t payload = next_chunk_ + kFrameSize;
  static_cast<ByteReader&>(*this) =
      ByteReader(image_.data() + payload, len, payload);
  next_chunk_ = payload + len;
  in_chunk_ = true;
}

void SnapshotReader::leave_chunk() {
  FHDNN_CHECK(in_chunk_, "leave_chunk without enter_chunk");
  finish();  // kSchema when the payload was not fully consumed
  static_cast<ByteReader&>(*this) = ByteReader();
  in_chunk_ = false;
}

// ---------------------------------------------------------------------------
// Atomic file replacement

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t len, bool keep_previous) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);  // NOLINT
  if (fd < 0) {
    throw_io("cannot create " + tmp);
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, p + written, len - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      throw_io("write to " + tmp + " failed");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_io("fsync of " + tmp + " failed");
  }
  if (::close(fd) != 0) {
    throw_io("close of " + tmp + " failed");
  }
  if (keep_previous) {
    const std::string prev = path + ".prev";
    if (::rename(path.c_str(), prev.c_str()) != 0 && errno != ENOENT) {
      throw_io("rotate " + path + " -> " + prev + " failed");
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_io("rename " + tmp + " -> " + path + " failed");
  }
  fsync_parent_dir(path);
}

void atomic_write_text(const std::string& path, std::string_view text) {
  atomic_write_file(path, text.data(), text.size(), /*keep_previous=*/false);
}

}  // namespace fhdnn::util
