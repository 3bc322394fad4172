// Tests for src/channel: AWGN, BSC bit errors, packet loss, HD uplink,
// LTE link model. Channel statistics are validated against closed forms.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "channel/bits.hpp"
#include "channel/channel.hpp"
#include "channel/hd_uplink.hpp"
#include "channel/lte.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fhdnn {
namespace {

using namespace fhdnn::channel;

TEST(PerfectChannel, NoOp) {
  PerfectChannel ch;
  Rng rng(1);
  std::vector<float> payload{1.0F, -2.0F, 3.0F};
  const auto orig = payload;
  const auto stats = ch.apply(payload, rng);
  EXPECT_EQ(payload, orig);
  EXPECT_EQ(stats.payload_scalars, 3U);
  EXPECT_EQ(stats.bits_on_air, 96U);
  EXPECT_EQ(stats.bit_flips, 0U);
}

TEST(Awgn, EmpiricalSnrMatchesTarget) {
  Rng rng(2);
  for (const double snr_db : {5.0, 15.0, 25.0}) {
    AwgnChannel ch(snr_db);
    std::vector<float> payload(20000);
    Rng pr(3);
    pr.fill_normal(payload, 0.0F, 2.0F);
    const auto orig = payload;
    const auto stats = ch.apply(payload, rng);
    double signal = 0.0, noise = 0.0;
    for (std::size_t i = 0; i < payload.size(); ++i) {
      signal += static_cast<double>(orig[i]) * orig[i];
      const double n = payload[i] - orig[i];
      noise += n * n;
    }
    const double measured_db = 10.0 * std::log10(signal / noise);
    EXPECT_NEAR(measured_db, snr_db, 0.3) << "target " << snr_db;
    EXPECT_GT(stats.noise_power, 0.0);
  }
}

TEST(Awgn, SilentPayloadUntouched) {
  AwgnChannel ch(10.0);
  Rng rng(4);
  std::vector<float> payload(16, 0.0F);
  ch.apply(payload, rng);
  for (const float v : payload) EXPECT_EQ(v, 0.0F);
}

TEST(Awgn, LowerSnrMoreNoise) {
  std::vector<float> base(5000, 1.0F);
  auto noise_for = [&](double snr_db) {
    Rng rng(5);
    auto p = base;
    AwgnChannel ch(snr_db);
    ch.apply(p, rng);
    double n = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double d = p[i] - base[i];
      n += d * d;
    }
    return n;
  };
  EXPECT_GT(noise_for(5.0), 10.0 * noise_for(25.0));
}

TEST(GeometricGap, MeanMatchesInverseP) {
  Rng rng(6);
  const double p = 0.01;
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.add(static_cast<double>(geometric_gap(p, rng)));
  }
  EXPECT_NEAR(acc.mean(), 1.0 / p, 3.0);
  EXPECT_GE(acc.min(), 1.0);
}

TEST(GeometricGap, ClampsOvershootingBer) {
  // A deadline-scaled BER can exceed 1.0; the gap must clamp to "every
  // bit flips" (gap 1) rather than tripping Rng::geometric's domain check.
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(geometric_gap(1.0, rng), 1ULL);
    EXPECT_EQ(geometric_gap(2.5, rng), 1ULL);
  }
}

TEST(GeometricGap, FlipDensityTracksBer) {
  // Statistical pin: measured flips over the geometric-gap walk match the
  // configured BER to within sampling noise (binomial sd).
  Rng rng(8);
  std::vector<float> payload(20000, 1.0F);
  const double ber = 0.01;
  const double total_bits = 32.0 * static_cast<double>(payload.size());
  const auto flips = flip_float_bits(payload, ber, rng);
  const double expected = ber * total_bits;
  EXPECT_NEAR(static_cast<double>(flips), expected,
              6.0 * std::sqrt(expected * (1.0 - ber)));
}

TEST(GeometricGap, BerOneFlipsEveryBit) {
  Rng rng(9);
  std::vector<float> payload(50, 0.0F);
  const auto flips = flip_float_bits(payload, 1.0, rng);
  EXPECT_EQ(flips, 32U * 50U);
  // Every bit of every float toggled: 0x00000000 -> 0xFFFFFFFF.
  for (const float v : payload) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(v), 0xFFFFFFFFU);
  }
}

TEST(BitErrors, FlipCountMatchesRate) {
  Rng rng(7);
  const double ber = 1e-3;
  BitErrorChannel ch(ber);
  std::vector<float> payload(100000, 1.5F);
  const auto stats = ch.apply(payload, rng);
  const double expected = ber * 32.0 * 100000.0;  // 3200
  EXPECT_NEAR(static_cast<double>(stats.bit_flips), expected,
              5.0 * std::sqrt(expected));
}

TEST(BitErrors, ZeroRateNoChange) {
  Rng rng(8);
  BitErrorChannel ch(0.0);
  std::vector<float> payload{1.0F, 2.0F};
  const auto stats = ch.apply(payload, rng);
  EXPECT_EQ(stats.bit_flips, 0U);
  EXPECT_EQ(payload[0], 1.0F);
}

TEST(BitErrors, ExponentFlipIsCatastrophic) {
  // The paper's §3.5.2 example: one exponent-bit flip can inflate a weight
  // by ~38 orders of magnitude. Verify our bit layout reproduces it.
  float w = 0.15625F;
  auto u = std::bit_cast<std::uint32_t>(w);
  u ^= (1U << 30);  // highest exponent bit
  const float corrupted = std::bit_cast<float>(u);
  EXPECT_GT(std::abs(corrupted), 1e37F);
}

TEST(BitErrors, HighRateCorruptsEverything) {
  Rng rng(9);
  BitErrorChannel ch(0.5);
  std::vector<float> payload(64, 1.0F);
  ch.apply(payload, rng);
  int changed = 0;
  for (const float v : payload) changed += (v != 1.0F);
  EXPECT_GT(changed, 56);
}

TEST(PacketLoss, LossFractionMatches) {
  Rng rng(10);
  PacketLossChannel ch(0.2, 32 * 32);  // 32 floats per packet
  std::vector<float> payload(32 * 1000, 1.0F);
  const auto stats = ch.apply(payload, rng);
  EXPECT_EQ(stats.packets_total, 1000U);
  EXPECT_NEAR(static_cast<double>(stats.packets_lost), 200.0, 60.0);
  // Zero-filled scalars == lost packets * 32.
  std::size_t zeros = 0;
  for (const float v : payload) zeros += (v == 0.0F);
  EXPECT_EQ(zeros, stats.packets_lost * 32);
}

TEST(PacketLoss, ContiguousZeroRuns) {
  Rng rng(11);
  PacketLossChannel ch(0.5, 4 * 32);
  std::vector<float> payload(40, 1.0F);
  ch.apply(payload, rng);
  // Zeros come in aligned runs of 4.
  for (std::size_t p = 0; p < 10; ++p) {
    const bool z0 = payload[4 * p] == 0.0F;
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(payload[4 * p + i] == 0.0F, z0);
    }
  }
}

TEST(PacketLoss, RateZeroAndOne) {
  Rng rng(12);
  std::vector<float> payload(128, 2.0F);
  PacketLossChannel none(0.0);
  none.apply(payload, rng);
  for (const float v : payload) EXPECT_EQ(v, 2.0F);
  PacketLossChannel all(1.0);
  const auto stats = all.apply(payload, rng);
  EXPECT_EQ(stats.packets_lost, stats.packets_total);
  for (const float v : payload) EXPECT_EQ(v, 0.0F);
}

TEST(ChannelFactories, ProduceRightTypes) {
  EXPECT_NE(make_awgn(10)->name().find("awgn"), std::string::npos);
  EXPECT_NE(make_bit_error(0.1)->name().find("bsc"), std::string::npos);
  EXPECT_NE(make_packet_loss(0.1)->name().find("packet"), std::string::npos);
}

TEST(ChannelValidation, RejectsBadParams) {
  EXPECT_THROW(BitErrorChannel(-0.1), Error);
  EXPECT_THROW(BitErrorChannel(1.1), Error);
  EXPECT_THROW(PacketLossChannel(2.0), Error);
  EXPECT_THROW(PacketLossChannel(0.1, 16), Error);  // < 32 bits
}

// ------------------------------------------------------- quantized flips

TEST(QuantizedFlips, StayInRange) {
  Rng rng(13);
  hdc::Quantizer quant(8);
  std::vector<float> v(1000);
  rng.fill_normal(v, 0.0F, 3.0F);
  auto q = quant.quantize(v);
  const auto flips = flip_quantized_bits(q, 0.05, rng);
  EXPECT_GT(flips, 0U);
  for (const auto x : q.values) {
    EXPECT_LE(x, quant.max_level());
    EXPECT_GE(x, -quant.max_level());
  }
}

TEST(QuantizedFlips, BoundedRelativeDamage) {
  // After AGC quantization, a single bit flip changes a value by at most
  // 2^(B-1)/G in real units — bounded by the row's max magnitude.
  Rng rng(14);
  hdc::Quantizer quant(16);
  std::vector<float> v(2000);
  rng.fill_normal(v, 0.0F, 1.0F);
  float max_abs = 0.0F;
  for (const float x : v) max_abs = std::max(max_abs, std::abs(x));
  auto q = quant.quantize(v);
  flip_quantized_bits(q, 1e-3, rng);
  std::vector<float> back(q.values.size());
  quant.dequantize_into(q, back);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - v[i]), 2.0F * max_abs + 1e-4F);
  }
}

// ------------------------------------------------------------- hd uplink

Tensor proto_matrix(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(Shape{4, 256}, rng, 5.0F);
}

TEST(HdUplink, PerfectKeepsModel) {
  Tensor m = proto_matrix(20);
  const auto orig = m.vec();
  HdUplinkConfig cfg;  // Perfect
  Rng rng(21);
  const auto stats = transmit_hd_model(m, cfg, rng);
  EXPECT_EQ(m.vec(), orig);
  EXPECT_EQ(stats.bits_on_air, 4U * 256U * 16U);  // quantized accounting
}

TEST(HdUplink, AwgnPerturbsAtSnr) {
  Tensor m = proto_matrix(22);
  const auto orig = m.vec();
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::Awgn;
  cfg.snr_db = 10.0;
  Rng rng(23);
  transmit_hd_model(m, cfg, rng);
  double signal = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    signal += static_cast<double>(orig[i]) * orig[i];
    const double d = m.vec()[i] - orig[i];
    noise += d * d;
  }
  EXPECT_NEAR(10.0 * std::log10(signal / noise), 10.0, 1.0);
}

TEST(HdUplink, BitErrorsWithQuantizerBounded) {
  Tensor m = proto_matrix(24);
  const auto orig = m.vec();
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::BitErrors;
  cfg.ber = 1e-3;
  cfg.quantizer_bits = 16;
  Rng rng(25);
  const auto stats = transmit_hd_model(m, cfg, rng);
  EXPECT_EQ(stats.bits_on_air, 4U * 256U * 16U);
  float max_abs = 0.0F;
  for (const float v : orig) max_abs = std::max(max_abs, std::abs(v));
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_LE(std::abs(m.vec()[i] - orig[i]), 2.0F * max_abs + 1e-3F);
  }
}

TEST(HdUplink, BitErrorsRawFloatCanExplode) {
  // Ablation path: without the quantizer, flips hit IEEE-754 floats and can
  // produce astronomically large values — run enough trials to observe one.
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::BitErrors;
  cfg.ber = 2e-2;
  cfg.use_quantizer = false;
  Rng rng(26);
  float worst = 0.0F;
  for (int t = 0; t < 30; ++t) {
    Tensor m = proto_matrix(27 + static_cast<std::uint64_t>(t));
    transmit_hd_model(m, cfg, rng);
    for (const float v : m.vec()) {
      if (std::isfinite(v)) worst = std::max(worst, std::abs(v));
    }
  }
  EXPECT_GT(worst, 1e10F);
}

TEST(HdUplink, PacketLossZeroes) {
  Tensor m = proto_matrix(28);
  HdUplinkConfig cfg;
  cfg.mode = HdUplinkMode::PacketLoss;
  cfg.loss_rate = 0.5;
  cfg.packet_bits = 1024;
  Rng rng(29);
  const auto stats = transmit_hd_model(m, cfg, rng);
  EXPECT_GT(stats.packets_lost, 0U);
  std::size_t zeros = 0;
  for (const float v : m.vec()) zeros += (v == 0.0F);
  EXPECT_EQ(zeros, stats.packets_lost * (1024 / 32));
}

TEST(HdUplink, Describe) {
  HdUplinkConfig cfg;
  EXPECT_EQ(describe(cfg), "perfect");
  cfg.mode = HdUplinkMode::BitErrors;
  EXPECT_NE(describe(cfg).find("AGC"), std::string::npos);
  cfg.use_quantizer = false;
  EXPECT_NE(describe(cfg).find("raw float"), std::string::npos);
}

// ------------------------------------------------------------------ lte

TEST(Lte, UploadTimes) {
  LteLinkModel link;
  // 22 MB at 1.6 Mb/s = 110 s; 1 MB at 5 Mb/s = 1.6 s.
  EXPECT_NEAR(link.upload_seconds(22ULL * 8'000'000, false), 110.0, 1e-6);
  EXPECT_NEAR(link.upload_seconds(8'000'000, true), 1.6, 1e-6);
}

TEST(Lte, TrainingTimeScalesWithRounds) {
  LteLinkModel link;
  const double one = link.training_seconds(1'000'000, 1, true);
  EXPECT_NEAR(link.training_seconds(1'000'000, 50, true), 50.0 * one, 1e-9);
}

TEST(Lte, ConfiguredRatesBelowShannon) {
  LteLinkModel link;
  EXPECT_LT(link.coded_rate_bps, link.shannon_capacity_bps());
  // The uncoded rate intentionally exceeds the *reliable* coded rate.
  EXPECT_GT(link.uncoded_rate_bps, link.coded_rate_bps);
}

TEST(Lte, TotalUploadBytes) {
  EXPECT_EQ(total_upload_bytes(1'000'000, 75), 75'000'000ULL);
}

TEST(Lte, SharedMediumScalesUploadTime) {
  // §3.5: per-client throughput scales 1/N when N clients share the medium.
  LteLinkModel link;
  const double solo = link.upload_seconds(8'000'000, true);
  link.shared_clients = 100;
  EXPECT_NEAR(link.upload_seconds(8'000'000, true), 100.0 * solo, 1e-9);
  // Paper §4.4 headline: 25 rounds x 1 MB at 5 Mb/s / 100 = 1.11 h.
  EXPECT_NEAR(link.training_seconds(8'000'000, 25, true) / 3600.0, 1.11, 0.01);
}

}  // namespace
}  // namespace fhdnn
