// Tests for sign-bit flips on packed models, the binary-sign HD uplink, and
// flat NN state transfer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel/bits.hpp"
#include "channel/hd_uplink.hpp"
#include "hdc/packed.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

using namespace fhdnn::channel;

// ---------------------------------------------------------------- HD uplink

Tensor protos(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(Shape{4, 512}, rng, 3.0F);
}

TEST(HdUplinkExt, BinaryTransportPerfect) {
  Tensor m = protos(14);
  HdUplinkConfig cfg;
  cfg.binary_transport = true;
  Rng rng(15);
  const auto stats = transmit_hd_model(m, cfg, rng);
  EXPECT_EQ(stats.bits_on_air, 4U * 512U);  // 1 bit per scalar
  for (const float v : m.vec()) EXPECT_TRUE(v == 1.0F || v == -1.0F);
}

TEST(HdUplinkExt, BinaryTransportBitErrorsBounded) {
  Tensor m = protos(16);
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::BitErrors;
  cfg.binary_transport = true;
  cfg.ber = 0.01;
  Rng rng(17);
  const auto stats = transmit_hd_model(m, cfg, rng);
  EXPECT_GT(stats.bit_flips, 0U);
  for (const float v : m.vec()) EXPECT_TRUE(v == 1.0F || v == -1.0F);
}

// Pins the binary uplink's exact output. K = 3 rows of d = 130 do not end on
// a word boundary, so a flat K*d bit blob and a row-aligned packed model lay
// the payload out differently; whichever layout the uplink uses internally,
// the flip walk must visit flat index r*d + j with the same RNG draws. The
// CRC-32 covers the received floats and the next draw checks how many
// values the flip walk took from the stream.
TEST(HdUplinkExt, BinaryTransportOutputIsPinned) {
  struct Case {
    HdUplinkMode mode;
    double ber;
    double scale;
    std::size_t flips;
    std::uint32_t crc;
    std::uint64_t next;
  };
  const Case cases[] = {
      {HdUplinkMode::Perfect, 0.0, 1.0, 0, 0x6f81401dU,
       0xfdea4e70dc146dbfULL},
      {HdUplinkMode::BitErrors, 0.01, 1.0, 5, 0xf0e91483U,
       0x767a312e63413d62ULL},
      {HdUplinkMode::BitErrors, 0.01, 3.0, 14, 0x3f3d9801U,
       0x26de097695b1c018ULL},
      {HdUplinkMode::BitErrors, 1.7, 1.0, 390, 0x1cd6cee4U,
       0xfdea4e70dc146dbfULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("ber=" + std::to_string(c.ber) +
                 " scale=" + std::to_string(c.scale));
    Rng data_rng(77);
    Tensor m = Tensor::randn(Shape{3, 130}, data_rng, 1.0F);
    HdUplinkConfig cfg;
    cfg.mode = c.mode;
    cfg.ber = c.ber;
    cfg.binary_transport = true;
    Rng rng(78);
    const auto stats = transmit_hd_model(m, cfg, rng, c.scale);
    EXPECT_EQ(stats.bits_on_air, 390U);
    EXPECT_EQ(stats.bit_flips, c.flips);
    const auto v = m.vec();
    EXPECT_EQ(util::crc32(v.data(), v.size() * sizeof(float)), c.crc);
    EXPECT_EQ(rng.next_u64(), c.next);
  }
}

TEST(HdUplinkExt, DescribeBinaryTransport) {
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::BitErrors;
  cfg.binary_transport = true;
  EXPECT_NE(describe(cfg).find("binary"), std::string::npos);
}

// ------------------------------------------------------- sign-bit flips

TEST(SignBitFlips, FlipCountMatchesRate) {
  Rng rng(15);
  const Tensor protos = Tensor::randn(Shape{10, 10000}, rng);
  hdc::PackedModel m = hdc::pack_rows(protos);
  const Tensor before = hdc::unpack_rows(m);
  const auto flips = flip_sign_bits(m, 0.01, rng);
  EXPECT_NEAR(static_cast<double>(flips), 1000.0, 150.0);
  const Tensor after = hdc::unpack_rows(m);
  std::size_t changed = 0;
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    changed += (before.at(i) != after.at(i));
  }
  EXPECT_EQ(changed, flips);
}

TEST(SignBitFlips, FlipsNeverExplodeValues) {
  // The binary-transport motivation: a flipped bit toggles one ±1, so the
  // worst-case per-element damage is bounded by 2 — no float32 blowups.
  Rng rng(16);
  const Tensor protos = Tensor::randn(Shape{4, 1000}, rng, 100.0F);
  hdc::PackedModel m = hdc::pack_rows(protos);
  flip_sign_bits(m, 0.2, rng);
  const Tensor t = hdc::unpack_rows(m);
  for (const float v : t.data()) EXPECT_TRUE(v == 1.0F || v == -1.0F);
}

TEST(SignBitFlips, FlipWithOvershootingBerFlipsEverything) {
  // Deadline scaling can push the effective BER past 1.0; the flip walk
  // clamps to "every payload bit flips" instead of throwing.
  Rng rng(23);
  const Tensor protos(Shape{2, 5}, {1, 1, 1, 1, 1, -1, -1, -1, -1, -1});
  hdc::PackedModel m = hdc::pack_rows(protos);
  const auto flips = flip_sign_bits(m, 1.7, rng);
  EXPECT_EQ(flips, 10U);
  const Tensor t = hdc::unpack_rows(m);
  for (std::int64_t j = 0; j < 5; ++j) {
    EXPECT_EQ(t(0, j), -1.0F);
    EXPECT_EQ(t(1, j), 1.0F);
  }
}

TEST(SignBitFlips, FullFlipKeepsRowTailsZero) {
  // d = 130 leaves 62 dead tail bits in each row's last word. At ber = 1
  // every payload bit flips and not one tail bit does.
  Rng rng(24);
  const Tensor protos = Tensor::randn(Shape{3, 130}, rng);
  const hdc::PackedModel before = hdc::pack_rows(protos);
  hdc::PackedModel m = before;
  EXPECT_EQ(flip_sign_bits(m, 1.0, rng), 390U);
  const std::uint64_t tail = hdc::tail_mask(130);
  for (std::int64_t r = 0; r < 3; ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    EXPECT_EQ(m.row(r)[0], ~before.row(r)[0]);
    EXPECT_EQ(m.row(r)[1], ~before.row(r)[1]);
    EXPECT_EQ(m.row(r)[2], ~before.row(r)[2] & tail);
  }
}

TEST(SignBitFlips, Validation) {
  Rng rng(25);
  hdc::PackedModel m(2, 100);
  m.words.pop_back();  // storage no longer holds 2 rows of 100 bits
  EXPECT_THROW(flip_sign_bits(m, 0.1, rng), Error);
  hdc::PackedModel empty;
  EXPECT_EQ(flip_sign_bits(empty, 0.5, rng), 0U);
}

// ------------------------------------------------------- model state

TEST(ModelCheckpoint, SaveLoadRestoresBehaviour) {
  Rng rng(22);
  auto net = nn::make_cnn2(1, 8, 4, rng);
  const std::vector<float> state = nn::get_state(*net);

  Rng rng2(99);
  auto other = nn::make_cnn2(1, 8, 4, rng2);
  nn::set_state(*other, state);
  net->set_training(false);
  other->set_training(false);
  const Tensor x = Tensor::rand(Shape{2, 1, 8, 8}, rng);
  const Tensor y1 = net->forward(x);
  const Tensor y2 = other->forward(x);
  EXPECT_EQ(y1.vec(), y2.vec());
}

TEST(ModelCheckpoint, ArchitectureMismatchThrows) {
  Rng rng(23);
  auto net = nn::make_cnn2(1, 8, 4, rng);
  auto bigger = nn::make_cnn2(1, 8, 6, rng);
  EXPECT_THROW(nn::set_state(*bigger, nn::get_state(*net)), Error);
}

}  // namespace
}  // namespace fhdnn
