#include "util/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/simd.hpp"

namespace fhdnn::util {
namespace {

const char* kind_name(SnapshotErrorKind kind) {
  switch (kind) {
    case SnapshotErrorKind::kIo: return "io";
    case SnapshotErrorKind::kFormat: return "format";
    case SnapshotErrorKind::kVersion: return "version";
    case SnapshotErrorKind::kCrc: return "crc";
    case SnapshotErrorKind::kTruncated: return "truncated";
    case SnapshotErrorKind::kState: return "state";
  }
  return "unknown";
}

std::string format_message(SnapshotErrorKind kind, std::size_t byte_offset,
                           const std::string& message) {
  std::ostringstream os;
  os << "snapshot " << kind_name(kind) << " error at byte " << byte_offset
     << ": " << message;
  return os.str();
}

constexpr char kMagic[8] = {'F', 'H', 'D', 'N', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t);
// Chunk frame: 4-byte tag, u64 payload length, u32 payload CRC.
constexpr std::size_t kFrameSize = 4 + sizeof(std::uint64_t) + sizeof(std::uint32_t);

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t len) {
  if (len == 0) return;  // empty vectors hand over a null data()
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + len);
}

[[noreturn]] void throw_io(const std::string& what) {
  throw SnapshotError(SnapshotErrorKind::kIo, 0,
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

std::uint32_t crc32(const void* data, std::size_t len) {
  return ~simd::kernels().crc32_update(
      0xFFFFFFFFU, static_cast<const std::uint8_t*>(data), len);
}

SnapshotError::SnapshotError(SnapshotErrorKind kind, std::size_t byte_offset,
                             const std::string& message)
    : Error(format_message(kind, byte_offset, message)),
      kind_(kind),
      byte_offset_(byte_offset) {}

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter() {
  out_.reserve(256);
  append_bytes(out_, kMagic, sizeof(kMagic));
  const std::uint32_t version = kSnapshotVersion;
  append_bytes(out_, &version, sizeof(version));
}

void SnapshotWriter::begin_chunk(std::string_view tag) {
  FHDNN_CHECK(!committed_, "SnapshotWriter reused after commit");
  FHDNN_CHECK(!in_chunk_, "begin_chunk while chunk '" << tag_ << "' is open");
  FHDNN_CHECK(tag.size() == 4, "chunk tag must be 4 bytes, got '" << tag << "'");
  tag_.assign(tag);
  chunk_.clear();
  in_chunk_ = true;
}

void SnapshotWriter::end_chunk() {
  FHDNN_CHECK(in_chunk_, "end_chunk without begin_chunk");
  append_bytes(out_, tag_.data(), 4);
  const auto len = static_cast<std::uint64_t>(chunk_.size());
  append_bytes(out_, &len, sizeof(len));
  const std::uint32_t crc = crc32(chunk_.data(), chunk_.size());
  append_bytes(out_, &crc, sizeof(crc));
  append_bytes(out_, chunk_.data(), chunk_.size());
  chunk_.clear();
  in_chunk_ = false;
}

void SnapshotWriter::chunk_bytes(const void* data, std::size_t len) {
  FHDNN_CHECK(in_chunk_, "snapshot write outside begin_chunk/end_chunk");
  append_bytes(chunk_, data, len);
}

void SnapshotWriter::write_u8(std::uint8_t v) { chunk_bytes(&v, sizeof(v)); }
void SnapshotWriter::write_u32(std::uint32_t v) { chunk_bytes(&v, sizeof(v)); }
void SnapshotWriter::write_u64(std::uint64_t v) { chunk_bytes(&v, sizeof(v)); }
void SnapshotWriter::write_i64(std::int64_t v) { chunk_bytes(&v, sizeof(v)); }
void SnapshotWriter::write_f32(float v) { chunk_bytes(&v, sizeof(v)); }
void SnapshotWriter::write_f64(double v) { chunk_bytes(&v, sizeof(v)); }

void SnapshotWriter::write_str(std::string_view s) {
  write_u64(s.size());
  chunk_bytes(s.data(), s.size());
}

void SnapshotWriter::write_bytes(const void* data, std::size_t len) {
  chunk_bytes(data, len);
}

void SnapshotWriter::write_floats(const std::vector<float>& v) {
  write_u64(v.size());
  chunk_bytes(v.data(), v.size() * sizeof(float));
}

void SnapshotWriter::write_doubles(const std::vector<double>& v) {
  write_u64(v.size());
  chunk_bytes(v.data(), v.size() * sizeof(double));
}

void SnapshotWriter::write_u64s(const std::vector<std::uint64_t>& v) {
  write_u64(v.size());
  chunk_bytes(v.data(), v.size() * sizeof(std::uint64_t));
}

void SnapshotWriter::write_sizes(const std::vector<std::size_t>& v) {
  write_u64(v.size());
  for (const std::size_t s : v) {
    write_u64(static_cast<std::uint64_t>(s));
  }
}

void SnapshotWriter::write_flags(const std::vector<char>& v) {
  write_u64(v.size());
  chunk_bytes(v.data(), v.size());
}

std::size_t SnapshotWriter::byte_size() const noexcept {
  return out_.size() + (in_chunk_ ? chunk_.size() + kFrameSize : 0);
}

std::vector<std::uint8_t> SnapshotWriter::finish() {
  FHDNN_CHECK(!committed_, "SnapshotWriter reused after commit/finish");
  FHDNN_CHECK(!in_chunk_, "finish with chunk '" << tag_ << "' still open");
  begin_chunk("END ");
  end_chunk();
  committed_ = true;
  return std::move(out_);
}

std::size_t SnapshotWriter::commit(const std::string& path) {
  const std::vector<std::uint8_t> image = finish();
  atomic_write_file(path, image.data(), image.size(), /*keep_previous=*/true);
  return image.size();
}

// ---------------------------------------------------------------------------
// SnapshotReader

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  SnapshotReader reader;
  reader.path_ = path;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw SnapshotError(SnapshotErrorKind::kIo, 0, "cannot open " + path);
  }
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  reader.data_.resize(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(reader.data_.data()), size);
  }
  if (!in) {
    throw SnapshotError(SnapshotErrorKind::kIo, 0, "cannot read " + path);
  }
  reader.validate();
  return reader;
}

SnapshotReader SnapshotReader::from_bytes(std::vector<std::uint8_t> image,
                                          std::string origin) {
  SnapshotReader reader;
  reader.path_ = std::move(origin);
  reader.data_ = std::move(image);
  reader.validate();
  return reader;
}

SnapshotReader SnapshotReader::open_with_fallback(const std::string& path) {
  try {
    return from_file(path);
  } catch (const SnapshotError& primary) {
    try {
      return from_file(path + ".prev");
    } catch (const SnapshotError& fallback) {
      throw SnapshotError(SnapshotErrorKind::kIo, 0,
                          "no usable snapshot generation; primary: " +
                              std::string(primary.what()) +
                              "; previous: " + std::string(fallback.what()));
    }
  }
}

void SnapshotReader::fail(SnapshotErrorKind kind, std::size_t offset,
                          const std::string& message) const {
  throw SnapshotError(kind, offset, message + " (" + path_ + ")");
}

void SnapshotReader::validate() {
  if (data_.size() < kHeaderSize) {
    fail(SnapshotErrorKind::kTruncated, data_.size(),
         "file shorter than the snapshot header");
  }
  if (std::memcmp(data_.data(), kMagic, sizeof(kMagic)) != 0) {
    fail(SnapshotErrorKind::kFormat, 0, "bad magic, not a snapshot file");
  }
  std::memcpy(&version_, data_.data() + sizeof(kMagic), sizeof(version_));
  if (version_ != kSnapshotVersion) {
    fail(SnapshotErrorKind::kVersion, sizeof(kMagic),
         "unsupported snapshot version " + std::to_string(version_));
  }
  std::size_t off = kHeaderSize;
  bool saw_end = false;
  while (!saw_end) {
    if (off + kFrameSize > data_.size()) {
      fail(SnapshotErrorKind::kTruncated, off, "chunk frame cut short");
    }
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, data_.data() + off + 4, sizeof(len));
    std::memcpy(&crc, data_.data() + off + 12, sizeof(crc));
    if (len > data_.size() - off - kFrameSize) {
      fail(SnapshotErrorKind::kTruncated, off + 4,
           "chunk payload extends past end of file");
    }
    const std::uint8_t* payload = data_.data() + off + kFrameSize;
    if (crc32(payload, static_cast<std::size_t>(len)) != crc) {
      fail(SnapshotErrorKind::kCrc, off + 12,
           "chunk '" + std::string(data_.begin() + static_cast<std::ptrdiff_t>(off),
                                   data_.begin() + static_cast<std::ptrdiff_t>(off) + 4) +
               "' failed CRC validation");
    }
    saw_end = std::memcmp(data_.data() + off, "END ", 4) == 0;
    off += kFrameSize + static_cast<std::size_t>(len);
  }
  if (off != data_.size()) {
    fail(SnapshotErrorKind::kFormat, off, "trailing bytes after END chunk");
  }
  cursor_ = kHeaderSize;
}

std::string SnapshotReader::peek_tag() const {
  FHDNN_CHECK(!in_chunk_, "peek_tag inside an open chunk");
  // validate() guarantees a well-formed chunk (ending with END) at cursor_.
  return {data_.begin() + static_cast<std::ptrdiff_t>(cursor_),
          data_.begin() + static_cast<std::ptrdiff_t>(cursor_) + 4};
}

void SnapshotReader::enter_chunk(std::string_view tag) {
  FHDNN_CHECK(!in_chunk_, "enter_chunk inside an open chunk");
  const std::string next = peek_tag();
  if (next != tag) {
    fail(SnapshotErrorKind::kState, cursor_,
         "expected chunk '" + std::string(tag) + "', found '" + next + "'");
  }
  std::uint64_t len = 0;
  std::memcpy(&len, data_.data() + cursor_ + 4, sizeof(len));
  cursor_ += kFrameSize;
  chunk_end_ = cursor_ + static_cast<std::size_t>(len);
  in_chunk_ = true;
}

void SnapshotReader::leave_chunk() {
  FHDNN_CHECK(in_chunk_, "leave_chunk without enter_chunk");
  if (cursor_ != chunk_end_) {
    fail(SnapshotErrorKind::kState, cursor_,
         "chunk payload not fully consumed; " +
             std::to_string(chunk_end_ - cursor_) + " bytes left");
  }
  in_chunk_ = false;
}

void SnapshotReader::need(std::size_t len) {
  FHDNN_CHECK(in_chunk_, "snapshot read outside enter_chunk/leave_chunk");
  if (len > chunk_end_ - cursor_) {
    fail(SnapshotErrorKind::kTruncated, cursor_,
         "read of " + std::to_string(len) + " bytes overruns the chunk");
  }
}

std::uint8_t SnapshotReader::read_u8() {
  need(1);
  return data_[cursor_++];
}

std::uint32_t SnapshotReader::read_u32() {
  need(sizeof(std::uint32_t));
  std::uint32_t v = 0;
  std::memcpy(&v, data_.data() + cursor_, sizeof(v));
  cursor_ += sizeof(v);
  return v;
}

std::uint64_t SnapshotReader::read_u64() {
  need(sizeof(std::uint64_t));
  std::uint64_t v = 0;
  std::memcpy(&v, data_.data() + cursor_, sizeof(v));
  cursor_ += sizeof(v);
  return v;
}

std::int64_t SnapshotReader::read_i64() {
  need(sizeof(std::int64_t));
  std::int64_t v = 0;
  std::memcpy(&v, data_.data() + cursor_, sizeof(v));
  cursor_ += sizeof(v);
  return v;
}

float SnapshotReader::read_f32() {
  need(sizeof(float));
  float v = 0;
  std::memcpy(&v, data_.data() + cursor_, sizeof(v));
  cursor_ += sizeof(v);
  return v;
}

double SnapshotReader::read_f64() {
  need(sizeof(double));
  double v = 0;
  std::memcpy(&v, data_.data() + cursor_, sizeof(v));
  cursor_ += sizeof(v);
  return v;
}

std::string SnapshotReader::read_str() {
  const auto len = static_cast<std::size_t>(read_u64());
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + cursor_), len);
  cursor_ += len;
  return s;
}

void SnapshotReader::read_bytes(void* out, std::size_t len) {
  need(len);
  if (len != 0) std::memcpy(out, data_.data() + cursor_, len);
  cursor_ += len;
}

std::vector<float> SnapshotReader::read_floats() {
  const auto n = static_cast<std::size_t>(read_u64());
  need(n * sizeof(float));
  std::vector<float> v(n);
  if (n != 0) std::memcpy(v.data(), data_.data() + cursor_, n * sizeof(float));
  cursor_ += n * sizeof(float);
  return v;
}

std::vector<double> SnapshotReader::read_doubles() {
  const auto n = static_cast<std::size_t>(read_u64());
  need(n * sizeof(double));
  std::vector<double> v(n);
  if (n != 0) std::memcpy(v.data(), data_.data() + cursor_, n * sizeof(double));
  cursor_ += n * sizeof(double);
  return v;
}

std::vector<std::uint64_t> SnapshotReader::read_u64s() {
  const auto n = static_cast<std::size_t>(read_u64());
  need(n * sizeof(std::uint64_t));
  std::vector<std::uint64_t> v(n);
  if (n != 0) std::memcpy(v.data(), data_.data() + cursor_, n * sizeof(std::uint64_t));
  cursor_ += n * sizeof(std::uint64_t);
  return v;
}

std::vector<std::size_t> SnapshotReader::read_sizes() {
  const auto n = static_cast<std::size_t>(read_u64());
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::size_t>(read_u64());
  }
  return v;
}

std::vector<char> SnapshotReader::read_flags() {
  const auto n = static_cast<std::size_t>(read_u64());
  need(n);
  std::vector<char> v(n);
  if (n != 0) std::memcpy(v.data(), data_.data() + cursor_, n);
  cursor_ += n;
  return v;
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
