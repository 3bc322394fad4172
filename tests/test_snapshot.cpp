// Tests for the crash-consistent snapshot subsystem (util/snapshot):
// writer/reader round-trips for every typed field, pinned image bytes,
// eager whole-file validation (magic / version / CRC / truncation /
// trailing bytes), hostile counts inside CRC-valid chunks, the checked
// decode of served tensor updates, the atomic-commit + previous-generation
// fallback protocol, and the
// Snapshotable round-trips of the engine components (EventQueue,
// TrainingHistory, ExactSumVector, RngState), including the exact-sum
// loader's rejection of inconsistent images.
#include "util/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fl/engine.hpp"
#include "fl/events.hpp"
#include "fl/history.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/exactsum.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "fhdnn_snap_" + name;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  return {std::istreambuf_iterator<char>(is), {}};
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

void remove_generations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
}

/// One chunk with every typed field, committed to a temp file.
std::string write_sample(const std::string& name) {
  const std::string path = tmp_path(name);
  remove_generations(path);
  util::SnapshotWriter w;
  w.begin_chunk("TEST");
  w.write_u8(7);
  w.write_u32(0xDEADBEEFU);
  w.write_u64(1ULL << 60);
  w.write_i64(-42);
  w.write_f64(-0.1);
  w.write_str("hello snapshot");
  w.write_blob(std::vector<std::uint8_t>{0, 255, 128});
  w.write_floats({1.0F, -2.0F, 3.25F});
  w.write_u64s({1, 2, 3});
  w.write_sizes({9, 8});
  w.write_flags({1, 0, 1});
  w.end_chunk();
  w.commit(path);
  return path;
}

// ------------------------------------------------------------ round-trip

TEST(Snapshot, WriterReaderRoundTripsEveryType) {
  const std::string path = write_sample("roundtrip.snap");
  auto r = util::SnapshotReader::from_file(path);
  EXPECT_EQ(r.version(), util::kSnapshotVersion);
  EXPECT_EQ(r.peek_tag(), "TEST");
  r.enter_chunk("TEST");
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.read_u64(), 1ULL << 60);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_f64(), -0.1);
  EXPECT_EQ(r.read_str(), "hello snapshot");
  const auto blob = r.read_blob();
  EXPECT_EQ(std::vector<std::uint8_t>(blob.begin(), blob.end()),
            (std::vector<std::uint8_t>{0, 255, 128}));
  EXPECT_EQ(r.read_floats(), (std::vector<float>{1.0F, -2.0F, 3.25F}));
  EXPECT_EQ(r.read_u64s(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.read_sizes(), (std::vector<std::size_t>{9, 8}));
  EXPECT_EQ(r.read_flags(), (std::vector<char>{1, 0, 1}));
  r.leave_chunk();
  EXPECT_EQ(r.peek_tag(), "END ");
}

TEST(Snapshot, CommitIsDeterministic) {
  const auto a = slurp(write_sample("det_a.snap"));
  const auto b = slurp(write_sample("det_b.snap"));
  EXPECT_EQ(a, b);
}

/// Float / double with an explicit bit pattern (NaN payloads, signed zero).
float f32_bits(std::uint32_t bits) {
  float v = 0.0F;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double f64_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// The emitted bytes themselves, not just a round-trip: a change that
// altered encoder and decoder alike (prefix width, NaN bits, chunk frame)
// would pass every round-trip test but not this length + CRC-32 pin.
TEST(SnapshotBytes, ImageOfEveryTypedWriteIsPinned) {
  util::SnapshotWriter w;
  w.begin_chunk("PIN1");
  w.write_u8(0xA5);
  w.write_u32(0xDEADBEEFU);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_i64(-42);
  w.write_f64(-0.1);
  w.write_f64(f64_bits(0x7FF8000000000123ULL));
  w.write_str("pinned");
  w.write_str("");
  w.write_floats({1.0F, f32_bits(0x80000000U), f32_bits(0x7F800000U),
                  f32_bits(0x7FC00123U)});
  w.write_u64s({1, 1ULL << 63});
  w.write_sizes({0, 9});
  w.write_flags({1, 0, 1});
  w.end_chunk();
  w.begin_chunk("PIN2");  // an empty chunk
  w.end_chunk();
  const std::vector<std::uint8_t> image = w.finish();
  EXPECT_EQ(image.size(), 202U);
  EXPECT_EQ(util::crc32(image.data(), image.size()), 0x4E4FD7F5U);
}

// The saved form of an exact accumulator is its 384-bit two's-complement
// limbs, whatever it keeps in memory: checkpoints written before a change
// to the accumulator must resume after it. Totals cover a positive carry
// chain (FLT_MAX twice), negative totals that sign-extend through every
// limb, subnormal quanta, cancellation to zero and a merged partial sum.
TEST(SnapshotBytes, ExactSumVectorImageIsPinned) {
  const float max = f32_bits(0x7F7FFFFFU);
  util::ExactSumVector acc(6);
  acc.add(std::vector<float>{1.0F, -2.5F, f32_bits(0x00000001U), max,
                             f32_bits(0x80000000U), 0.1F});
  acc.add(std::vector<float>{-3.0F, 2.5F, f32_bits(0x80000003U), max,
                             f32_bits(0x007FFFFFU), -1e-30F});
  util::ExactSumVector part(6);
  part.add(std::vector<float>{1e-30F, 0.0F, 1e30F, f32_bits(0xFF7FFFFFU),
                              -1e-40F, -7.0F});
  part.add(std::vector<float>{0.5F, -0.0F, -1e30F, -1.0F, 3e-39F, 2e20F});
  acc.add(part);
  util::SnapshotWriter w;
  w.begin_chunk("EXSV");
  acc.save(w);
  w.end_chunk();
  const std::vector<std::uint8_t> image = w.finish();
  EXPECT_EQ(image.size(), 348U);
  EXPECT_EQ(util::crc32(image.data(), image.size()), 0xA3D6B837U);
}

// ------------------------------------------------------ eager validation

TEST(Snapshot, RejectsBadMagic) {
  const std::string path = write_sample("magic.snap");
  auto bytes = slurp(path);
  bytes[0] ^= 0xFFU;
  spit(path, bytes);
  try {
    (void)util::SnapshotReader::from_file(path);
    FAIL() << "bad magic accepted";
  } catch (const util::DecodeError& e) {
    EXPECT_EQ(e.kind(), util::DecodeErrorKind::kFormat);
  }
}

TEST(Snapshot, RejectsUnknownVersion) {
  const std::string path = write_sample("version.snap");
  auto bytes = slurp(path);
  bytes[8] = 0xEE;  // version u32 follows the 8-byte magic
  spit(path, bytes);
  try {
    (void)util::SnapshotReader::from_file(path);
    FAIL() << "future version accepted";
  } catch (const util::DecodeError& e) {
    EXPECT_EQ(e.kind(), util::DecodeErrorKind::kVersion);
  }
}

TEST(Snapshot, BitFlipAnywhereInPayloadFailsCrc) {
  const std::string path = write_sample("crc.snap");
  const auto clean = slurp(path);
  // Flip one bit in the middle of the TEST chunk payload (past the 12-byte
  // header and 16-byte chunk frame).
  for (const std::size_t at : {std::size_t{30}, clean.size() / 2}) {
    auto bytes = clean;
    bytes[at] ^= 0x01U;
    spit(path, bytes);
    try {
      (void)util::SnapshotReader::from_file(path);
      FAIL() << "bit flip at " << at << " accepted";
    } catch (const util::DecodeError& e) {
      EXPECT_EQ(e.kind(), util::DecodeErrorKind::kCrc) << "at " << at;
      EXPECT_GT(e.byte_offset(), 0U);
    }
  }
}

TEST(Snapshot, TruncationAtAnyLengthIsRejected) {
  const std::string path = write_sample("trunc.snap");
  const auto clean = slurp(path);
  // Every proper prefix must be rejected (torn write without rename).
  for (std::size_t len = 0; len < clean.size(); len += 7) {
    spit(path, {clean.begin(), clean.begin() + static_cast<long>(len)});
    EXPECT_THROW((void)util::SnapshotReader::from_file(path),
                 util::DecodeError)
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(Snapshot, TrailingBytesAreRejected) {
  const std::string path = write_sample("trailing.snap");
  auto bytes = slurp(path);
  bytes.push_back(0);
  spit(path, bytes);
  try {
    (void)util::SnapshotReader::from_file(path);
    FAIL() << "trailing byte accepted";
  } catch (const util::DecodeError& e) {
    EXPECT_EQ(e.kind(), util::DecodeErrorKind::kFormat);
  }
}

TEST(Snapshot, SchemaMismatchesAreTypedSchemaErrors) {
  const std::string path = write_sample("schema.snap");
  {
    auto r = util::SnapshotReader::from_file(path);
    try {
      r.enter_chunk("NOPE");
      FAIL() << "wrong tag accepted";
    } catch (const util::DecodeError& e) {
      EXPECT_EQ(e.kind(), util::DecodeErrorKind::kSchema);
    }
  }
  {
    auto r = util::SnapshotReader::from_file(path);
    r.enter_chunk("TEST");
    (void)r.read_u8();
    EXPECT_THROW(r.leave_chunk(), util::DecodeError);  // unconsumed payload
  }
}

// Header (12) + chunk frame (16): where the first chunk's payload starts.
constexpr std::size_t kFirstPayload = 28;

TEST(Snapshot, TypedReadsOutsideAChunkThrow) {
  const std::string path = write_sample("outside.snap");
  auto r = util::SnapshotReader::from_file(path);
  EXPECT_THROW((void)r.read_u8(), util::DecodeError);
  r.enter_chunk("TEST");
  (void)r.read_u8();
  EXPECT_THROW(r.enter_chunk("TEST"), Error);  // chunks do not nest
}

TEST(Snapshot, StrayWriteOutsideAChunkIsCaught) {
  util::SnapshotWriter w;
  w.write_u32(1);  // before any begin_chunk: would corrupt the framing
  EXPECT_THROW(w.begin_chunk("LATE"), Error);
  util::SnapshotWriter v;
  v.begin_chunk("OK  ");
  v.end_chunk();
  v.write_u8(1);  // between chunks
  EXPECT_THROW((void)v.finish(), Error);
}

// A CRC only proves the bytes arrived as sent; a sender can still lie in a
// count prefix. Every vector read must check the count against the chunk
// before it allocates: 2^62 and 2^61 wrap a naive count * width bounds
// check, and 2^50 is a count no allocator can satisfy.
TEST(Snapshot, HostileCountsInEveryVectorReadFailAsTruncation) {
  using Read = void (*)(util::SnapshotReader&);
  const std::pair<const char*, Read> reads[] = {
      {"str", [](util::SnapshotReader& r) { (void)r.read_str(); }},
      {"blob", [](util::SnapshotReader& r) { (void)r.read_blob(); }},
      {"floats", [](util::SnapshotReader& r) { (void)r.read_floats(); }},
      {"u64s", [](util::SnapshotReader& r) { (void)r.read_u64s(); }},
      {"sizes", [](util::SnapshotReader& r) { (void)r.read_sizes(); }},
      {"flags", [](util::SnapshotReader& r) { (void)r.read_flags(); }},
  };
  for (const std::uint64_t count : {1ULL << 62, 1ULL << 61, 1ULL << 50}) {
    util::SnapshotWriter w;
    w.begin_chunk("HOST");
    w.write_u64(count);
    w.write_u64(0);  // a few payload bytes a small count would fit in
    w.end_chunk();
    const std::vector<std::uint8_t> image = w.finish();
    for (const auto& [name, read] : reads) {
      auto r = util::SnapshotReader::from_bytes(image);
      r.enter_chunk("HOST");
      try {
        read(r);
        FAIL() << name << " accepted a count of " << count;
      } catch (const util::DecodeError& e) {
        EXPECT_EQ(e.kind(), util::DecodeErrorKind::kTruncated) << name;
        EXPECT_EQ(e.byte_offset(), kFirstPayload + 8) << name;
      }
    }
  }
}

// ------------------------------------------- tensor update decoding

/// A snapshot image holding one hand-built tensor update record.
util::SnapshotReader tensor_record(std::uint8_t present, std::uint64_t rank,
                                   const std::vector<std::int64_t>& dims,
                                   const std::vector<float>& values) {
  util::SnapshotWriter w;
  w.begin_chunk("UPDT");
  w.write_u8(present);
  w.write_u64(rank);
  for (const std::int64_t d : dims) w.write_i64(d);
  w.write_floats(values);
  w.end_chunk();
  auto r = util::SnapshotReader::from_bytes(w.finish());
  r.enter_chunk("UPDT");
  return r;
}

/// Decoding must fail as a schema error at `offset`.
void expect_tensor_rejected(util::SnapshotReader r, std::size_t offset) {
  try {
    (void)fl::UpdateSnapshotCodec<Tensor>::load(r);
    FAIL() << "tensor record accepted";
  } catch (const util::DecodeError& e) {
    EXPECT_EQ(e.kind(), util::DecodeErrorKind::kSchema) << e.what();
    EXPECT_EQ(e.byte_offset(), offset) << e.what();
  }
}

TEST(TensorUpdateCodec, RoundTripsPresentAndAbsentTensors) {
  Rng rng(4);
  const Tensor t = Tensor::randn(Shape{3, 5}, rng);
  for (const Tensor& src : {t, Tensor{}}) {
    util::SnapshotWriter w;
    w.begin_chunk("UPDT");
    fl::UpdateSnapshotCodec<Tensor>::save(w, src);
    w.end_chunk();
    auto r = util::SnapshotReader::from_bytes(w.finish());
    r.enter_chunk("UPDT");
    const Tensor back = fl::UpdateSnapshotCodec<Tensor>::load(r);
    r.leave_chunk();
    EXPECT_EQ(back.shape(), src.shape());
    EXPECT_EQ(back.vec(), src.vec());
  }
}

TEST(TensorUpdateCodec, PresenceFlagMustBeZeroOrOne) {
  expect_tensor_rejected(tensor_record(7, 1, {2}, {1.0F, 2.0F}),
                         kFirstPayload);
}

TEST(TensorUpdateCodec, HostileRankIsRejectedBeforeAllocating) {
  expect_tensor_rejected(tensor_record(1, 1ULL << 40, {2}, {1.0F, 2.0F}),
                         kFirstPayload + 1);
  expect_tensor_rejected(tensor_record(1, 9, {2}, {1.0F, 2.0F}),
                         kFirstPayload + 1);
}

TEST(TensorUpdateCodec, NonPositiveOrHugeDimIsRejected) {
  expect_tensor_rejected(tensor_record(1, 2, {3, -4}, {}),
                         kFirstPayload + 1 + 8 + 8);
  expect_tensor_rejected(tensor_record(1, 2, {0, 4}, {}),
                         kFirstPayload + 1 + 8);
  expect_tensor_rejected(tensor_record(1, 1, {1LL << 40}, {}),
                         kFirstPayload + 1 + 8);
}

TEST(TensorUpdateCodec, ShapeMustMatchTheFloatCount) {
  expect_tensor_rejected(
      tensor_record(1, 2, {3, 4}, std::vector<float>(11, 1.0F)),
      kFirstPayload + 1 + 8 + 16);
}

// ------------------------------------------- durability + fallback

TEST(Snapshot, CommitRotatesThePreviousGeneration) {
  const std::string path = tmp_path("rotate.snap");
  remove_generations(path);
  {
    util::SnapshotWriter w;
    w.begin_chunk("GEN ");
    w.write_u32(1);
    w.end_chunk();
    w.commit(path);
  }
  {
    util::SnapshotWriter w;
    w.begin_chunk("GEN ");
    w.write_u32(2);
    w.end_chunk();
    w.commit(path);
  }
  auto cur = util::SnapshotReader::from_file(path);
  cur.enter_chunk("GEN ");
  EXPECT_EQ(cur.read_u32(), 2U);
  auto prev = util::SnapshotReader::from_file(path + ".prev");
  prev.enter_chunk("GEN ");
  EXPECT_EQ(prev.read_u32(), 1U);
}

TEST(Snapshot, FallbackReadsPreviousGenerationWhenPrimaryIsTorn) {
  const std::string path = tmp_path("fallback.snap");
  remove_generations(path);
  for (const std::uint32_t gen : {1U, 2U}) {
    util::SnapshotWriter w;
    w.begin_chunk("GEN ");
    w.write_u32(gen);
    w.end_chunk();
    w.commit(path);
  }
  // Tear the primary: truncate it mid-file.
  const auto bytes = slurp(path);
  spit(path, {bytes.begin(), bytes.begin() + 9});
  auto r = util::SnapshotReader::open_with_fallback(path);
  EXPECT_EQ(r.source_path(), path + ".prev");
  r.enter_chunk("GEN ");
  EXPECT_EQ(r.read_u32(), 1U);
  // Both generations gone: a typed error naming the path.
  remove_generations(path);
  EXPECT_THROW((void)util::SnapshotReader::open_with_fallback(path),
               util::DecodeError);
}

TEST(Snapshot, AtomicWriteTextReplacesWholeFile) {
  const std::string path = tmp_path("artifact.json");
  remove_generations(path);
  util::atomic_write_text(path, "{\"a\": 1}\n");
  util::atomic_write_text(path, "{\"b\": 2}\n");
  const auto bytes = slurp(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "{\"b\": 2}\n");
}

// ------------------------------------------- component round-trips

template <typename T>
void roundtrip(const T& src, T& dst) {
  util::SnapshotWriter w;
  w.begin_chunk("OBJ ");
  src.save(w);
  w.end_chunk();
  const std::string path = tmp_path("component.snap");
  remove_generations(path);
  w.commit(path);
  auto r = util::SnapshotReader::from_file(path);
  r.enter_chunk("OBJ ");
  dst.load(r);
  r.leave_chunk();
}

TEST(SnapshotComponents, RngStateResumesTheStreamExactly) {
  Rng a(1234);
  (void)a.normal();  // populate the cached-normal slot
  for (int i = 0; i < 17; ++i) (void)a.next_u64();
  Rng b(1);
  b.set_state(a.state());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.normal(), b.normal());  // exact doubles, cache included
  }
}

TEST(SnapshotComponents, EventQueueRestoresPendingEventsAndClock) {
  fl::EventQueue q;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 40; ++i) {
    fl::Event e;
    e.time = rng.uniform(0.0, 100.0);
    e.client = static_cast<std::size_t>(rng.next_u64() % 16);
    e.seq = i;
    e.kind = static_cast<fl::EventKind>(i % 3);
    e.slot = static_cast<std::size_t>(i % 5);
    q.push(e);
  }
  for (int i = 0; i < 10; ++i) (void)q.pop();

  fl::EventQueue restored;
  roundtrip(q, restored);
  EXPECT_EQ(restored.size(), q.size());
  EXPECT_EQ(restored.now(), q.now());
  EXPECT_EQ(restored.processed(), q.processed());
  while (!q.empty()) {
    const auto a = q.pop();
    const auto b = restored.pop();
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.client, b.client);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.slot, b.slot);
  }
  EXPECT_TRUE(restored.empty());
}

TEST(SnapshotComponents, EventQueueSnapshotIsCanonical) {
  // Same pending set pushed in different orders must serialize identically
  // (save() sorts; the heap layout depends on push order).
  std::vector<fl::Event> events;
  Rng rng(9);
  for (std::uint64_t i = 0; i < 12; ++i) {
    fl::Event e;
    e.time = rng.uniform(0.0, 10.0);
    e.client = static_cast<std::size_t>(i);
    events.push_back(e);
  }
  fl::EventQueue fwd;
  for (const auto& e : events) fwd.push(e);
  fl::EventQueue rev;
  for (auto it = events.rbegin(); it != events.rend(); ++it) rev.push(*it);
  util::SnapshotWriter wa;
  wa.begin_chunk("EVTQ");
  fwd.save(wa);
  wa.end_chunk();
  util::SnapshotWriter wb;
  wb.begin_chunk("EVTQ");
  rev.save(wb);
  wb.end_chunk();
  const std::string pa = tmp_path("canon_a.snap");
  const std::string pb = tmp_path("canon_b.snap");
  remove_generations(pa);
  remove_generations(pb);
  wa.commit(pa);
  wb.commit(pb);
  EXPECT_EQ(slurp(pa), slurp(pb));
}

TEST(SnapshotComponents, TrainingHistoryRoundTripsEveryField) {
  fl::TrainingHistory h;
  Rng rng(3);
  for (int i = 1; i <= 5; ++i) {
    fl::RoundMetrics m;
    m.round = i;
    m.test_accuracy = rng.uniform();
    m.train_loss = rng.uniform();
    m.clients = i;
    m.sampled = i + 2;
    m.dropped = 1;
    m.timed_out = 1;
    m.stale_accepted = static_cast<std::uint64_t>(i % 2);
    m.bytes_uplink = 1000ULL * static_cast<std::uint64_t>(i);
    m.bits_on_air = 8000ULL * static_cast<std::uint64_t>(i);
    m.bit_flips = 3;
    m.packets_lost = 2;
    m.retransmissions = 4;
    m.residual_errors = 1;
    m.simulated_round_seconds = rng.uniform(1.0, 5.0);
    m.events = 20 + static_cast<std::uint64_t>(i);
    m.wall_seconds = rng.uniform();
    h.add(m);
  }
  fl::TrainingHistory restored;
  roundtrip(h, restored);
  ASSERT_EQ(restored.size(), h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    const auto& a = h.rounds()[i];
    const auto& b = restored.rounds()[i];
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);
    EXPECT_EQ(a.train_loss, b.train_loss);
    EXPECT_EQ(a.clients, b.clients);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.stale_accepted, b.stale_accepted);
    EXPECT_EQ(a.bytes_uplink, b.bytes_uplink);
    EXPECT_EQ(a.bits_on_air, b.bits_on_air);
    EXPECT_EQ(a.bit_flips, b.bit_flips);
    EXPECT_EQ(a.packets_lost, b.packets_lost);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.residual_errors, b.residual_errors);
    EXPECT_EQ(a.simulated_round_seconds, b.simulated_round_seconds);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  }
}

TEST(SnapshotComponents, ExactSumVectorResumesMidAggregation) {
  util::ExactSumVector acc(64);
  Rng rng(11);
  std::vector<float> update(64);
  for (int k = 0; k < 7; ++k) {
    for (auto& v : update) v = static_cast<float>(rng.normal() * 1e6);
    acc.add(update);
  }
  util::ExactSumVector restored;
  roundtrip(acc, restored);
  ASSERT_EQ(restored.size(), acc.size());
  // One more fold on both, then identical rounding.
  for (auto& v : update) v = static_cast<float>(rng.normal());
  acc.add(update);
  restored.add(update);
  std::vector<float> a(64);
  std::vector<float> b(64);
  acc.round_to(a);
  restored.round_to(b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

/// The one-chunk image `src.save` writes.
template <typename T>
std::vector<std::uint8_t> image_of(const T& src) {
  util::SnapshotWriter w;
  w.begin_chunk("OBJ ");
  src.save(w);
  w.end_chunk();
  return w.finish();
}

/// Loads `dst` from one chunk whose payload `fill` writes field by field and
/// returns the kind of the DecodeError it throws; fails the test if the
/// load throws anything else or nothing at all.
template <typename T, typename Fill>
util::DecodeErrorKind load_error(T& dst, Fill fill) {
  util::SnapshotWriter w;
  w.begin_chunk("OBJ ");
  fill(w);
  w.end_chunk();
  auto r = util::SnapshotReader::from_bytes(w.finish());
  r.enter_chunk("OBJ ");
  try {
    dst.load(r);
  } catch (const util::DecodeError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "hostile image loaded";
  return util::DecodeErrorKind::kIo;
}

TEST(SnapshotComponents, ExactSumVectorAddIsAllOrNothing) {
  util::ExactSumVector acc(9);
  std::vector<float> x = {1.0F, -2.0F, 3e38F, -1e-40F, 0.5F,
                          7.0F, -9.0F, 1e-3F, 2.0F};
  acc.add(x);
  acc.add(x);
  const std::vector<std::uint8_t> before = image_of(acc);
  // A non-finite value anywhere, including the first and last element,
  // throws before any element of the span is added.
  for (const std::size_t at : {0UL, 4UL, 5UL, 8UL}) {
    for (const std::uint32_t bad : {0x7FC00000U, 0x7F800000U, 0xFF800000U}) {
      std::vector<float> y = x;
      y[at] = f32_bits(bad);
      EXPECT_THROW(acc.add(y), Error);
      EXPECT_EQ(image_of(acc), before) << "at " << at << " bits " << bad;
    }
  }
}

TEST(SnapshotComponents, ExactSumVectorRejectsWrappingElementCount) {
  util::ExactSumVector acc(3);
  // 6 * (2^63 + 2) wraps to 12 in 64 bits: twelve limbs must not pass for
  // 2^63 + 2 elements.
  EXPECT_EQ(load_error(acc,
                       [](util::SnapshotWriter& w) {
                         w.write_u64((1ULL << 63) + 2);
                         w.write_u64s(std::vector<std::uint64_t>(12, 0));
                       }),
            util::DecodeErrorKind::kSchema);
  EXPECT_EQ(load_error(acc,
                       [](util::SnapshotWriter& w) {
                         w.write_u64(2);
                         w.write_u64s(std::vector<std::uint64_t>(13, 0));
                       }),
            util::DecodeErrorKind::kSchema);
  EXPECT_EQ(acc.size(), 3U);  // a rejected image leaves the state alone
}

TEST(SnapshotComponents, ExactSumVectorRejectsValuesBeyondItsRange) {
  // The top 64 bits must sign-extend bit 319, in either direction.
  const std::vector<std::vector<std::uint64_t>> hostile = {
      {0, 0, 0, 0, 0, 1},
      {0, 0, 0, 0, 1ULL << 63, 0},
      {0, 0, 0, 0, 0, ~0ULL},
  };
  for (const auto& limbs : hostile) {
    util::ExactSumVector acc;
    EXPECT_EQ(load_error(acc,
                         [&limbs](util::SnapshotWriter& w) {
                           w.write_u64(1);
                           w.write_u64s(limbs);
                         }),
              util::DecodeErrorKind::kSchema);
  }
  // The extremes that do sign-extend load and round: -1 quantum, and the
  // most negative value the image can hold (far beyond float range).
  for (const auto& [limbs, want] :
       std::vector<std::pair<std::vector<std::uint64_t>, std::uint32_t>>{
           {{~0ULL, ~0ULL, ~0ULL, ~0ULL, ~0ULL, ~0ULL}, 0x80000001U},
           {{0, 0, 0, 0, 1ULL << 63, ~0ULL}, 0xFF800000U}}) {
    util::SnapshotWriter w;
    w.begin_chunk("OBJ ");
    w.write_u64(1);
    w.write_u64s(limbs);
    w.end_chunk();
    const std::vector<std::uint8_t> image = w.finish();
    auto r = util::SnapshotReader::from_bytes(image);
    r.enter_chunk("OBJ ");
    util::ExactSumVector acc;
    acc.load(r);
    std::vector<float> out(1);
    acc.round_to(out);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[0]), want);
    EXPECT_EQ(image_of(acc), image);
  }
}

}  // namespace
}  // namespace fhdnn
