// Tests for the extended channels (Gilbert-Elliott burst loss, Rayleigh
// fading), sign-bit flips on packed models, the binary-sign HD uplink, and
// flat NN state transfer.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "channel/bits.hpp"
#include "channel/fading.hpp"
#include "channel/hd_uplink.hpp"
#include "hdc/packed.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fhdnn {
namespace {

using namespace fhdnn::channel;

// ------------------------------------------------------- Gilbert-Elliott

GilbertElliottChannel::Params ge_params() {
  GilbertElliottChannel::Params p;
  p.p_good_to_bad = 0.05;
  p.p_bad_to_good = 0.2;
  p.loss_good = 0.001;
  p.loss_bad = 0.7;
  p.packet_bits = 32 * 32;  // 32 floats per packet
  return p;
}

TEST(GilbertElliott, AverageLossMatchesStationary) {
  const GilbertElliottChannel ch(ge_params());
  // pi_bad = 0.05/0.25 = 0.2 -> avg = 0.8*0.001 + 0.2*0.7 = 0.1408
  EXPECT_NEAR(ch.average_loss_rate(), 0.1408, 1e-6);

  Rng rng(1);
  std::size_t lost = 0, total = 0;
  for (int t = 0; t < 30; ++t) {
    std::vector<float> payload(32 * 500, 1.0F);
    const auto stats = ch.apply(payload, rng);
    lost += stats.packets_lost;
    total += stats.packets_total;
  }
  EXPECT_NEAR(static_cast<double>(lost) / static_cast<double>(total),
              ch.average_loss_rate(), 0.02);
}

TEST(GilbertElliott, LossesAreBursty) {
  // With the same average loss, the burst channel's lost packets should be
  // far more temporally clustered than i.i.d. loss: compare the number of
  // loss "runs" (maximal consecutive lost stretches) — fewer runs for the
  // same number of losses = burstier.
  const GilbertElliottChannel ge(ge_params());
  const PacketLossChannel iid(ge.average_loss_rate(), 32 * 32);
  auto runs_per_loss = [](const std::vector<bool>& lost) {
    std::size_t runs = 0, losses = 0;
    for (std::size_t i = 0; i < lost.size(); ++i) {
      losses += lost[i];
      if (lost[i] && (i == 0 || !lost[i - 1])) ++runs;
    }
    return losses ? static_cast<double>(runs) / static_cast<double>(losses)
                  : 1.0;
  };
  auto measure = [&](const Channel& ch, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<float> payload(32 * 4000, 1.0F);
    ch.apply(payload, rng);
    std::vector<bool> lost(4000);
    for (std::size_t p = 0; p < 4000; ++p) lost[p] = payload[32 * p] == 0.0F;
    return runs_per_loss(lost);
  };
  // i.i.d.: runs/losses ~ (1-p) ~ 0.86; bursty: much lower.
  EXPECT_LT(measure(ge, 2), measure(iid, 2) - 0.2);
}

TEST(GilbertElliott, Validation) {
  auto p = ge_params();
  p.p_good_to_bad = 0.0;
  EXPECT_THROW(GilbertElliottChannel{p}, Error);
  p = ge_params();
  p.loss_bad = 1.5;
  EXPECT_THROW(GilbertElliottChannel{p}, Error);
  p = ge_params();
  p.packet_bits = 8;
  EXPECT_THROW(GilbertElliottChannel{p}, Error);
}

// --------------------------------------------------------------- Rayleigh

TEST(Rayleigh, AverageSnrInRightRegime) {
  // Equalized Rayleigh noise is heavier-tailed than AWGN; with the deep-
  // fade clamp the average realized SNR lands below the configured average
  // but within a few dB.
  const RayleighFadingChannel ch(15.0, 64);
  Rng rng(3);
  std::vector<float> payload(64 * 600, 1.0F);
  const auto orig = payload;
  ch.apply(payload, rng);
  double noise = 0.0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const double d = payload[i] - orig[i];
    noise += d * d;
  }
  const double snr_db =
      10.0 * std::log10(static_cast<double>(payload.size()) / noise);
  EXPECT_LT(snr_db, 15.0);
  EXPECT_GT(snr_db, 2.0);
}

TEST(Rayleigh, BlockStructure) {
  // Noise variance is constant within a block but varies across blocks:
  // per-block noise power should have a much larger spread than AWGN's.
  const std::size_t block = 128;
  auto block_power_cv = [&](const Channel& ch, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<float> payload(block * 200, 1.0F);
    const auto orig = payload;
    ch.apply(payload, rng);
    stats::Accumulator acc;
    for (std::size_t b = 0; b < 200; ++b) {
      double p = 0.0;
      for (std::size_t i = 0; i < block; ++i) {
        const double d = payload[b * block + i] - orig[b * block + i];
        p += d * d;
      }
      acc.add(p / block);
    }
    return acc.stddev() / acc.mean();  // coefficient of variation
  };
  const RayleighFadingChannel ray(10.0, block);
  const AwgnChannel awgn(10.0);
  EXPECT_GT(block_power_cv(ray, 4), 3.0 * block_power_cv(awgn, 4));
}

TEST(Rayleigh, SilentPayloadUntouched) {
  const RayleighFadingChannel ch(10.0);
  Rng rng(5);
  std::vector<float> payload(64, 0.0F);
  ch.apply(payload, rng);
  for (const float v : payload) EXPECT_EQ(v, 0.0F);
}

// ----------------------------------------------------- HD uplink (extended)

Tensor protos(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(Shape{4, 512}, rng, 3.0F);
}

TEST(HdUplinkExt, BurstLossZeroFills) {
  Tensor m = protos(10);
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::BurstLoss;
  cfg.burst_loss_bad = 0.9;
  cfg.packet_bits = 1024;
  Rng rng(11);
  const auto stats = transmit_hd_model(m, cfg, rng);
  EXPECT_GT(stats.packets_total, 0U);
  std::size_t zeros = 0;
  for (const float v : m.vec()) zeros += (v == 0.0F);
  EXPECT_EQ(zeros, stats.packets_lost * (1024 / 32));
}

TEST(HdUplinkExt, RayleighPerturbs) {
  Tensor m = protos(12);
  const auto orig = m.vec();
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::Rayleigh;
  cfg.snr_db = 10.0;
  Rng rng(13);
  transmit_hd_model(m, cfg, rng);
  EXPECT_NE(m.vec(), orig);
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

TEST(HdUplinkExt, DescribeNewModes) {
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::BurstLoss;
  EXPECT_NE(describe(cfg).find("burst"), std::string::npos);
  cfg.mode = HdUplinkMode::Rayleigh;
  EXPECT_NE(describe(cfg).find("rayleigh"), std::string::npos);
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
