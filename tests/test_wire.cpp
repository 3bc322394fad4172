// Adversarial tests for the fhdnnd wire format (src/wire), mirroring
// test_snapshot.cpp's discipline: every message type round-trips
// bit-exactly and its encoded bytes are pinned, every single-bit flip of an
// encoded frame is caught with a typed DecodeError, truncation fails at
// EVERY prefix length, version skew
// is rejected before anything else is trusted, and trailing bytes are
// never silently ignored.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "util/rng.hpp"
#include "util/bytes.hpp"
#include "util/snapshot.hpp"
#include "wire/messages.hpp"
#include "wire/wire.hpp"

namespace fhdnn {
namespace {

using wire::Frame;
using wire::MsgType;
using util::ByteReader;
using util::ByteWriter;
using util::DecodeError;
using util::DecodeErrorKind;

std::vector<std::uint8_t> encode(const Frame& f) {
  return wire::encode_frame(f.type, f.payload);
}

/// Receives `len` bytes into the assembler in place, as a channel's pump does.
void feed(wire::FrameAssembler& asm_, const std::uint8_t* data,
          std::size_t len) {
  std::memcpy(asm_.prepare(len).data(), data, len);
  asm_.commit(len);
}

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

/// A RoundAssign with every field exercised: mid-stream RNG (cached
/// normal), several slots, and a nontrivial blob.
wire::RoundAssignMsg sample_assign() {
  Rng rng(1234);
  (void)rng.normal();  // populate the cached Box-Muller half
  wire::RoundAssignMsg m;
  m.round_index = 7;
  m.n_participants = 5;
  m.rng = rng.state();
  m.slots = {{0, 3}, {2, 1}, {4, 4}};
  m.state_blob = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  return m;
}

channel::TransportStats sample_stats() {
  channel::TransportStats s;
  s.payload_scalars = 11;
  s.payload_bytes = 22;
  s.bits_on_air = 33;
  s.bit_flips = 44;
  s.packets_total = 55;
  s.packets_lost = 66;
  s.retransmissions = 77;
  s.residual_errors = 88;
  s.backoff_seconds = 0.125;
  s.noise_power = -3.5e-7;
  return s;
}

// ------------------------------------------------------------ frame layer

TEST(WireFrame, HeaderLayoutConstants) {
  EXPECT_EQ(wire::kFrameHeaderSize, 20U);
  const auto bytes = wire::encode_frame(MsgType::kHello, {1, 2, 3});
  ASSERT_EQ(bytes.size(), wire::kFrameHeaderSize + 3);
  EXPECT_EQ(bytes[0], 'F');
  EXPECT_EQ(bytes[1], 'H');
  EXPECT_EQ(bytes[2], 'D');
  EXPECT_EQ(bytes[3], 'W');
}

TEST(WireFrame, EmptyAndNonEmptyPayloadRoundTrip) {
  for (const std::vector<std::uint8_t>& payload :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{9, 8, 7}}) {
    const auto bytes = wire::encode_frame(MsgType::kUpdate, payload);
    const Frame f = wire::decode_frame(bytes.data(), bytes.size());
    EXPECT_EQ(f.type, MsgType::kUpdate);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(WireFrame, TruncationAtEveryPrefixFails) {
  const auto bytes = wire::encode_frame(MsgType::kRoundDone, {1, 2, 3, 4, 5});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)wire::decode_frame(bytes.data(), len), DecodeError)
        << "prefix " << len << " decoded";
  }
}

TEST(WireFrame, TrailingBytesRejected) {
  auto bytes = wire::encode_frame(MsgType::kShutdown, {1});
  bytes.push_back(0);
  try {
    (void)wire::decode_frame(bytes.data(), bytes.size());
    FAIL() << "trailing byte accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kSchema);
    EXPECT_EQ(e.byte_offset(), bytes.size() - 1);
  }
}

TEST(WireFrame, EveryBitFlipDetected) {
  // Flip every bit of an encoded Hello; either the frame layer or the
  // message decoder must reject it (a flip inside the type field can
  // produce another *valid* frame type — the typed from_frame catches
  // that as a schema error).
  wire::HelloMsg hello;
  hello.config_fingerprint = 0xC0FFEE42;
  hello.protocol = "fedhd";
  hello.capabilities = 0;
  const auto bytes = encode(hello.to_frame());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      auto copy = bytes;
      copy[i] = static_cast<std::uint8_t>(copy[i] ^ (1U << b));
      EXPECT_THROW(
          {
            const Frame f = wire::decode_frame(copy.data(), copy.size());
            (void)wire::HelloMsg::from_frame(f);
          },
          DecodeError)
          << "flip at byte " << i << " bit " << b << " went undetected";
    }
  }
}

TEST(WireFrame, BadMagicReportsFormatAtOffsetZero) {
  auto bytes = wire::encode_frame(MsgType::kHello, {});
  bytes[0] = 'X';
  try {
    (void)wire::decode_frame(bytes.data(), bytes.size());
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kFormat);
    EXPECT_EQ(e.byte_offset(), 0U);
  }
}

TEST(WireFrame, VersionSkewReportsTypedError) {
  auto bytes = wire::encode_frame(MsgType::kHello, {1, 2});
  // Patch the u16 version field (bytes 4..5) to kWireVersion + 1.
  const std::uint16_t skew = wire::kWireVersion + 1;
  std::memcpy(bytes.data() + 4, &skew, 2);
  try {
    (void)wire::decode_frame(bytes.data(), bytes.size());
    FAIL() << "version skew accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kVersion);
    EXPECT_EQ(e.byte_offset(), 4U);
  }
}

TEST(WireFrame, UnknownTypeRejected) {
  auto bytes = wire::encode_frame(MsgType::kHello, {});
  const std::uint16_t bogus = 999;
  std::memcpy(bytes.data() + 6, &bogus, 2);
  try {
    (void)wire::decode_frame(bytes.data(), bytes.size());
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kType);
    EXPECT_EQ(e.byte_offset(), 6U);
  }
  EXPECT_TRUE(wire::msg_type_known(1));
  EXPECT_TRUE(wire::msg_type_known(6));
  EXPECT_FALSE(wire::msg_type_known(0));
  EXPECT_FALSE(wire::msg_type_known(7));
}

TEST(WireFrame, RetiredArqFrameTypeIsUnknown) {
  // Type 7 was a standalone ARQ frame that nothing sent or handled; a
  // frame of that type is now rejected like any other unknown type.
  auto bytes = wire::encode_frame(MsgType::kShutdown, {1, 2, 3});
  const std::uint16_t arq = 7;
  std::memcpy(bytes.data() + 6, &arq, 2);
  try {
    (void)wire::decode_frame(bytes.data(), bytes.size());
    FAIL() << "frame type 7 accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kType);
    EXPECT_EQ(e.byte_offset(), 6U);
  }
}

TEST(WireFrame, PayloadCorruptionReportsCrc) {
  auto bytes = wire::encode_frame(MsgType::kUpdate, {10, 20, 30});
  bytes[wire::kFrameHeaderSize + 1] ^= 0x40;
  try {
    (void)wire::decode_frame(bytes.data(), bytes.size());
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kCrc);
  }
}

TEST(WireFrame, HostileLengthDoesNotAllocate) {
  auto bytes = wire::encode_frame(MsgType::kHello, {});
  const std::uint64_t huge = wire::kMaxFrameBytes + 1;
  std::memcpy(bytes.data() + 8, &huge, 8);
  EXPECT_THROW((void)wire::decode_frame(bytes.data(), bytes.size()),
               DecodeError);
}

// The emitted bytes of every message, not just round-trips: length and
// CRC-32 of one encoded frame per message type.
TEST(WireBytes, EveryMessageFrameIsPinned) {
  wire::HelloMsg hello;
  hello.config_fingerprint = 0xC0FFEE42;
  hello.protocol = "fedhd";
  hello.capabilities = 3;
  wire::HelloAckMsg ack;
  ack.config_fingerprint = 0xC0FFEE42;
  ack.worker_id = 17;
  wire::RoundAssignMsg assign;
  assign.round_index = -7;
  assign.n_participants = 5;
  assign.rng.s[0] = 0x0123456789ABCDEFULL;
  assign.rng.s[1] = 1;
  assign.rng.s[2] = 1ULL << 63;
  assign.rng.s[3] = 0xFFFFFFFFFFFFFFFFULL;
  assign.rng.has_cached_normal = true;
  assign.rng.cached_normal = -0.375;
  assign.slots = {{0, 3}, {2, 1}, {4, 4}};
  assign.state_blob = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  wire::UpdateMsg update;
  update.round_index = 3;
  update.slot = 1;
  update.client = 9;
  update.loss = 0.0625;
  update.stats = sample_stats();
  update.update_blob = {1, 2, 3};
  wire::RoundDoneMsg done;
  done.round_index = 2;
  done.accepted = 4;
  done.bytes_uplink = 12288;
  done.test_accuracy = std::numeric_limits<double>::quiet_NaN();
  wire::ShutdownMsg shutdown;
  shutdown.rounds_completed = 20;

  struct Pin {
    const char* name;
    Frame frame;
    std::size_t size;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"Hello", hello.to_frame(), 45U, 0x4DF76A8FU},
      {"HelloAck", ack.to_frame(), 32U, 0x736712B6U},
      {"RoundAssign", assign.to_frame(), 147U, 0x80F95D9EU},
      {"Update", update.to_frame(), 143U, 0x5A160EABU},
      {"RoundDone", done.to_frame(), 52U, 0x3AB427DAU},
      {"Shutdown", shutdown.to_frame(), 28U, 0x076339E0U},
  };
  for (const Pin& p : pins) {
    const auto bytes = encode(p.frame);
    EXPECT_EQ(bytes.size(), p.size) << p.name;
    EXPECT_EQ(util::crc32(bytes.data(), bytes.size()), p.crc) << p.name;
  }
}

/// The RoundAssign and Update of EveryMessageFrameIsPinned.
wire::RoundAssignMsg pinned_assign() {
  wire::RoundAssignMsg assign;
  assign.round_index = -7;
  assign.n_participants = 5;
  assign.rng.s[0] = 0x0123456789ABCDEFULL;
  assign.rng.s[1] = 1;
  assign.rng.s[2] = 1ULL << 63;
  assign.rng.s[3] = 0xFFFFFFFFFFFFFFFFULL;
  assign.rng.has_cached_normal = true;
  assign.rng.cached_normal = -0.375;
  assign.slots = {{0, 3}, {2, 1}, {4, 4}};
  assign.state_blob = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  return assign;
}

wire::UpdateMsg pinned_update() {
  wire::UpdateMsg update;
  update.round_index = 3;
  update.slot = 1;
  update.client = 9;
  update.loss = 0.0625;
  update.stats = sample_stats();
  update.update_blob = {1, 2, 3};
  return update;
}

/// The bytes `out` gained past its first `from` bytes.
std::vector<std::uint8_t> tail_of(const std::vector<std::uint8_t>& out,
                                  std::size_t from) {
  return {out.begin() + static_cast<std::ptrdiff_t>(from), out.end()};
}

TEST(WireBytes, InPlaceEncodersProduceThePinnedBytes) {
  // Appended behind bytes already queued, as in a channel's send buffer.
  const std::vector<std::uint8_t> queued = {9, 8, 7, 6, 5};
  const wire::RoundAssignMsg assign = pinned_assign();
  std::vector<std::uint8_t> out = queued;
  wire::append_round_assign(out, assign, assign.state_blob);
  const auto assign_bytes = tail_of(out, queued.size());
  EXPECT_EQ(tail_of(out, 0).size(), queued.size() + 147U);
  EXPECT_EQ(assign_bytes, encode(assign.to_frame()));
  EXPECT_EQ(util::crc32(assign_bytes.data(), assign_bytes.size()),
            0x80F95D9EU);

  const wire::UpdateMsg update = pinned_update();
  out = queued;
  wire::append_update(out, update, [&](std::vector<std::uint8_t>& blob) {
    blob.insert(blob.end(), update.update_blob.begin(),
                update.update_blob.end());
  });
  const auto update_bytes = tail_of(out, queued.size());
  EXPECT_EQ(update_bytes.size(), 143U);
  EXPECT_EQ(update_bytes, encode(update.to_frame()));
  EXPECT_EQ(util::crc32(update_bytes.data(), update_bytes.size()),
            0x5A160EABU);
}

TEST(WireBytes, InPlaceUpdateImageMatchesTheOwnedEncoding) {
  // The served path writes the update's snapshot image straight into the
  // frame; the bytes equal an UpdateMsg carrying the same image.
  const auto fill = [](util::SnapshotWriter& w) {
    w.begin_chunk("UPDT");
    w.write_floats({1.5F, -2.0F, 0.0F});
    w.end_chunk();
  };
  std::vector<std::uint8_t> image;
  util::append_image(image, fill);
  wire::UpdateMsg owned = pinned_update();
  owned.update_blob = image;
  std::vector<std::uint8_t> out = {1, 2};
  wire::append_update(out, owned, [&](std::vector<std::uint8_t>& blob) {
    util::append_image(blob, fill);
  });
  EXPECT_EQ(tail_of(out, 2), encode(owned.to_frame()));
}

TEST(WireBytes, InPlaceUpdateLeavesTheBufferAsItWasWhenTheBlobThrows) {
  const std::vector<std::uint8_t> queued = {4, 4, 4};
  std::vector<std::uint8_t> out = queued;
  EXPECT_THROW(wire::append_update(
                   out, pinned_update(),
                   [](std::vector<std::uint8_t>& blob) {
                     util::append_image(blob, [](util::SnapshotWriter& w) {
                       w.begin_chunk("UPDT");
                       w.write_u64(1);
                       throw DecodeError(DecodeErrorKind::kSchema, 0, "no");
                     });
                   }),
               DecodeError);
  EXPECT_EQ(out, queued);
}

TEST(WireViews, DecodedBlobsPointIntoTheFrame) {
  const std::vector<std::uint8_t> bytes = encode(pinned_update().to_frame());
  const wire::FrameView f = wire::decode_frame(bytes.data(), bytes.size());
  EXPECT_EQ(f.payload.data(), bytes.data() + wire::kFrameHeaderSize);
  const wire::UpdateView u = wire::UpdateMsg::from_frame(f);
  EXPECT_EQ(u.update_blob.data() + u.update_blob.size(),
            bytes.data() + bytes.size());
  EXPECT_EQ(bytes_of(u.update_blob), pinned_update().update_blob);
  const std::vector<std::uint8_t> assign = encode(pinned_assign().to_frame());
  const auto a = wire::RoundAssignMsg::from_frame(
      wire::decode_frame(assign.data(), assign.size()));
  EXPECT_EQ(a.state_blob.data() + a.state_blob.size(),
            assign.data() + assign.size());
}

/// A small UPDT image like the ones Update frames carry.
std::vector<std::uint8_t> small_update_image() {
  std::vector<std::uint8_t> image;
  util::append_image(image, [](util::SnapshotWriter& w) {
    w.begin_chunk("UPDT");
    w.write_u8(1);
    w.write_floats({0.25F, -1.0F, 3.0F});
    w.end_chunk();
  });
  return image;
}

/// How validating an image ends: "ok", or the DecodeError kind and offset.
std::string validation_outcome(bool borrowed,
                               const std::vector<std::uint8_t>& image) {
  try {
    if (borrowed) {
      (void)util::SnapshotReader::borrow(image, "test");
    } else {
      (void)util::SnapshotReader::from_bytes(image, "test");
    }
    return "ok";
  } catch (const DecodeError& e) {
    return std::to_string(static_cast<int>(e.kind())) + "@" +
           std::to_string(e.byte_offset());
  }
}

TEST(WireViews, BorrowedImageFailsExactlyLikeAnOwnedOne) {
  const std::vector<std::uint8_t> image = small_update_image();
  for (std::size_t len = 0; len < image.size(); ++len) {
    SCOPED_TRACE("prefix " + std::to_string(len));
    const std::vector<std::uint8_t> cut(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len));
    const std::string owned = validation_outcome(false, cut);
    EXPECT_NE(owned, "ok");
    EXPECT_EQ(validation_outcome(true, cut), owned);
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("flip byte " + std::to_string(i) + " bit " +
                   std::to_string(bit));
      std::vector<std::uint8_t> flipped = image;
      flipped[i] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_EQ(validation_outcome(true, flipped),
                validation_outcome(false, flipped));
    }
  }
  // A valid borrowed image reads the same values as an owned one.
  auto owned = util::SnapshotReader::from_bytes(image);
  auto borrowed = util::SnapshotReader::borrow(image);
  owned.enter_chunk("UPDT");
  borrowed.enter_chunk("UPDT");
  EXPECT_EQ(owned.read_u8(), borrowed.read_u8());
  EXPECT_EQ(owned.read_floats(), borrowed.read_floats());
  owned.leave_chunk();
  borrowed.leave_chunk();
}

// ------------------------------------------------------- frame assembler

TEST(WireAssembler, ReassemblesByteByByte) {
  wire::HelloAckMsg a;
  a.config_fingerprint = 77;
  a.worker_id = 3;
  wire::ShutdownMsg s;
  s.rounds_completed = 12;
  auto stream = encode(a.to_frame());
  const auto second = encode(s.to_frame());
  stream.insert(stream.end(), second.begin(), second.end());

  wire::FrameAssembler asm_;
  std::vector<Frame> out;
  for (const std::uint8_t byte : stream) {
    feed(asm_, &byte, 1);
    while (auto f = asm_.next()) out.push_back(std::move(*f));
  }
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(wire::HelloAckMsg::from_frame(out[0]).worker_id, 3U);
  EXPECT_EQ(wire::ShutdownMsg::from_frame(out[1]).rounds_completed, 12);
  EXPECT_EQ(asm_.buffered(), 0U);
}

TEST(WireAssembler, RejectsCorruptStreamEagerly) {
  auto bytes = wire::encode_frame(MsgType::kHello, {1, 2, 3});
  bytes[1] = '!';  // magic broken: must throw as soon as the header arrives
  wire::FrameAssembler asm_;
  feed(asm_, bytes.data(), wire::kFrameHeaderSize);
  EXPECT_THROW((void)asm_.next(), DecodeError);
}

TEST(WireAssembler, ViewsStayIntactUntilTheNextPrepare) {
  const auto f1 = encode(pinned_update().to_frame());
  const auto f2 = encode(pinned_assign().to_frame());
  const auto f3 = encode(wire::ShutdownMsg{}.to_frame());
  std::vector<std::uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());
  stream.insert(stream.end(), f3.begin(), f3.begin() + 7);
  wire::FrameAssembler asm_;
  feed(asm_, stream.data(), stream.size());
  const wire::FrameView v1 = *asm_.next();
  const wire::FrameView v2 = *asm_.next();
  EXPECT_FALSE(asm_.next().has_value());  // the third is still partial
  // Taking later frames moves nothing: both views still hold their bytes.
  EXPECT_EQ(bytes_of(v1.payload), pinned_update().to_frame().payload);
  EXPECT_EQ(bytes_of(v2.payload), pinned_assign().to_frame().payload);
  feed(asm_, f3.data() + 7, f3.size() - 7);
  EXPECT_EQ(asm_.next()->type, MsgType::kShutdown);
  EXPECT_EQ(asm_.buffered(), 0U);
}

TEST(WireAssembler, ReceivesInPlaceAndKeepsItsCapacity) {
  const auto bytes = encode(pinned_update().to_frame());
  wire::FrameAssembler asm_;
  std::span<std::uint8_t> space = asm_.prepare(bytes.size());
  ASSERT_GE(space.size(), bytes.size());
  std::uint8_t* const base = space.data();
  std::memcpy(base, bytes.data(), bytes.size());
  asm_.commit(bytes.size());
  const wire::FrameView f = *asm_.next();
  // The payload is where it was received: no copy was made.
  EXPECT_EQ(f.payload.data(), base + wire::kFrameHeaderSize);
  // Drained, the next prepare() rewinds into the same buffer.
  EXPECT_EQ(asm_.prepare(bytes.size()).data(), base);
  EXPECT_EQ(asm_.missing(), wire::kFrameHeaderSize);
  asm_.commit(0);
}

TEST(WireAssembler, PartialFrameYieldsNothing) {
  const auto bytes = wire::encode_frame(MsgType::kUpdate, {1, 2, 3, 4});
  wire::FrameAssembler asm_;
  feed(asm_, bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(asm_.next().has_value());
  EXPECT_EQ(asm_.buffered(), bytes.size() - 1);
  feed(asm_, bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(asm_.next().has_value());
}

// ------------------------------------------------------- payload strictness

TEST(WirePayload, TrailingPayloadBytesRejected) {
  ByteWriter w;
  w.write_u32(5);
  w.write_u8(1);  // one extra byte the reader will not consume
  const auto payload = w.take();
  ByteReader r(payload);
  EXPECT_EQ(r.read_u32(), 5U);
  try {
    r.finish();
    FAIL() << "trailing payload byte accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kSchema);
    EXPECT_EQ(e.byte_offset(), 4U);
  }
}

TEST(WirePayload, HostileFloatCountFailsCleanly) {
  // A length prefix of 2^62 floats must fail as truncation, not overflow
  // into a tiny allocation.
  ByteWriter w;
  w.write_u64(std::uint64_t{1} << 62);
  const auto payload = w.take();
  ByteReader r(payload);
  try {
    (void)r.read_floats();
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated);
  }
}

TEST(WirePayload, ErrorOffsetsCountFromTheWindowBase) {
  // A reader over a payload inside a larger stream reports stream offsets.
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  ByteReader r(bytes.data(), bytes.size(), 100);
  EXPECT_EQ(r.read_u8(), 1U);
  EXPECT_EQ(r.offset(), 101U);
  try {
    (void)r.read_u32();
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated);
    EXPECT_EQ(e.byte_offset(), 101U);
  }
}

TEST(WirePayload, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.write_str("fedavg");
  w.write_blob(std::vector<std::uint8_t>{0, 255, 128});
  w.write_floats({1.5F, -0.0F, std::numeric_limits<float>::infinity()});
  const auto payload = w.take();
  ByteReader r(payload);
  EXPECT_EQ(r.read_str(), "fedavg");
  const auto blob = r.read_blob();
  EXPECT_EQ(bytes_of(blob), (std::vector<std::uint8_t>{0, 255, 128}));
  const auto f = r.read_floats();
  ASSERT_EQ(f.size(), 3U);
  EXPECT_EQ(f[0], 1.5F);
  EXPECT_TRUE(std::signbit(f[1]));
  EXPECT_TRUE(std::isinf(f[2]));
  r.finish();
}

// ------------------------------------------------------ message round-trips

TEST(WireMessages, HelloRoundTrip) {
  wire::HelloMsg m;
  m.config_fingerprint = 0xABCD1234;
  m.protocol = "fedavg";
  m.capabilities = 0;
  const auto back = wire::HelloMsg::from_frame(m.to_frame());
  EXPECT_EQ(back.config_fingerprint, m.config_fingerprint);
  EXPECT_EQ(back.protocol, m.protocol);
  EXPECT_EQ(back.capabilities, m.capabilities);
}

TEST(WireMessages, HelloAckRoundTrip) {
  wire::HelloAckMsg m;
  m.config_fingerprint = 42;
  m.worker_id = 17;
  const auto back = wire::HelloAckMsg::from_frame(m.to_frame());
  EXPECT_EQ(back.config_fingerprint, 42U);
  EXPECT_EQ(back.worker_id, 17U);
}

TEST(WireMessages, RoundAssignRoundTripIsRngExact) {
  const auto m = sample_assign();
  const Frame f = m.to_frame();
  const auto back = wire::RoundAssignMsg::from_frame(f);
  EXPECT_EQ(back.round_index, m.round_index);
  EXPECT_EQ(back.n_participants, m.n_participants);
  ASSERT_EQ(back.slots.size(), m.slots.size());
  for (std::size_t i = 0; i < m.slots.size(); ++i) {
    EXPECT_EQ(back.slots[i].slot, m.slots[i].slot);
    EXPECT_EQ(back.slots[i].client, m.slots[i].client);
  }
  EXPECT_EQ(bytes_of(back.state_blob), m.state_blob);

  // The decoded RNG state must continue the exact stream, including the
  // cached Box-Muller normal.
  Rng original(0);
  original.set_state(m.rng);
  Rng decoded(0);
  decoded.set_state(back.rng);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(bits_equal(original.normal(), decoded.normal()));
    EXPECT_EQ(original.next_u64(), decoded.next_u64());
  }
}

TEST(WireMessages, RoundAssignRejectsInconsistentSlots) {
  // slot index >= n_participants: structurally valid, semantically broken.
  auto m = sample_assign();
  m.slots[1].slot = m.n_participants;
  const Frame out_of_range = m.to_frame();
  try {
    (void)wire::RoundAssignMsg::from_frame(out_of_range);
    FAIL() << "out-of-range slot accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kSchema);
  }
  auto too_many = sample_assign();
  too_many.n_participants = 2;  // fewer than the 3 assigned slots
  too_many.slots[0].slot = 0;
  too_many.slots[1].slot = 1;
  too_many.slots[2].slot = 1;
  const Frame f = too_many.to_frame();
  EXPECT_THROW((void)wire::RoundAssignMsg::from_frame(f), DecodeError);
}

TEST(WireMessages, UpdateRoundTripCarriesAllTenStatFields) {
  wire::UpdateMsg m;
  m.round_index = 3;
  m.slot = 1;
  m.client = 9;
  m.loss = 0.0625;
  m.stats = sample_stats();
  m.update_blob = {1, 2, 3};
  const Frame f = m.to_frame();
  const auto back = wire::UpdateMsg::from_frame(f);
  EXPECT_EQ(back.round_index, 3);
  EXPECT_EQ(back.slot, 1U);
  EXPECT_EQ(back.client, 9U);
  EXPECT_TRUE(bits_equal(back.loss, m.loss));
  EXPECT_EQ(back.stats.payload_scalars, 11U);
  EXPECT_EQ(back.stats.payload_bytes, 22U);
  EXPECT_EQ(back.stats.bits_on_air, 33U);
  EXPECT_EQ(back.stats.bit_flips, 44U);
  EXPECT_EQ(back.stats.packets_total, 55U);
  EXPECT_EQ(back.stats.packets_lost, 66U);
  EXPECT_EQ(back.stats.retransmissions, 77U);
  EXPECT_EQ(back.stats.residual_errors, 88U);
  EXPECT_TRUE(bits_equal(back.stats.backoff_seconds, 0.125));
  EXPECT_TRUE(bits_equal(back.stats.noise_power, -3.5e-7));
  EXPECT_EQ(bytes_of(back.update_blob), m.update_blob);
}

TEST(WireMessages, RoundDoneRoundTripPreservesNaN) {
  wire::RoundDoneMsg m;
  m.round_index = 2;
  m.accepted = 4;
  m.bytes_uplink = 12288;
  m.test_accuracy = std::numeric_limits<double>::quiet_NaN();
  const auto back = wire::RoundDoneMsg::from_frame(m.to_frame());
  EXPECT_EQ(back.round_index, 2);
  EXPECT_EQ(back.accepted, 4U);
  EXPECT_EQ(back.bytes_uplink, 12288U);
  EXPECT_TRUE(std::isnan(back.test_accuracy));
}

TEST(WireMessages, ShutdownRoundTrip) {
  wire::ShutdownMsg m;
  m.rounds_completed = 20;
  EXPECT_EQ(wire::ShutdownMsg::from_frame(m.to_frame()).rounds_completed, 20);
}

TEST(WireMessages, FromFrameRejectsWrongType) {
  wire::HelloMsg hello;
  hello.protocol = "fedhd";
  const Frame f = hello.to_frame();
  try {
    (void)wire::ShutdownMsg::from_frame(f);
    FAIL() << "type confusion accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kSchema);
  }
}

TEST(WireMessages, RngStateFlagValidated) {
  // has_cached_normal travels as a u8 that must be 0 or 1.
  ByteWriter w;
  w.write_u64(1);
  w.write_u64(2);
  w.write_u64(3);
  w.write_u64(4);
  w.write_u8(2);  // invalid flag
  w.write_f64(0.0);
  const auto payload = w.take();
  ByteReader r(payload);
  EXPECT_THROW((void)get_rng_state(r), DecodeError);
}

TEST(WireMessages, RoundAssignHostileSlotCountFailsBeforeAllocating) {
  // A slot count the payload cannot hold must not size a reservation,
  // even when the (equally hostile) cohort size would admit it.
  auto m = sample_assign();
  m.n_participants = std::uint64_t{1} << 60;
  Frame f = m.to_frame();
  // The slot count follows round_index, n_participants and the RNG state.
  const std::size_t at = 8 + 8 + (4 * 8 + 1 + 8);
  const std::uint64_t hostile = std::uint64_t{1} << 59;
  std::memcpy(f.payload.data() + at, &hostile, 8);
  try {
    (void)wire::RoundAssignMsg::from_frame(f);
    FAIL() << "hostile slot count accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated);
    EXPECT_EQ(e.byte_offset(), at + 8);
  }
}

}  // namespace
}  // namespace fhdnn
