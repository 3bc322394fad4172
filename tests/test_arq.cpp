// Tests for the reliable-delivery layer (channel/arq.hpp): CRC-32 known-
// answer vectors and every SIMD tier's CRC-32 kernel against a bytewise
// oracle, backoff schedule, ARQ framing/retransmission/residual
// behavior and its determinism, plus the channel/LTE edge cases that the
// deadline-round machinery leans on (packet_error_rate, LteLinkModel).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "channel/arq.hpp"
#include "channel/channel.hpp"
#include "channel/lte.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/snapshot.hpp"

namespace fhdnn::channel {
namespace {

// ------------------------------------------------------------ CRC-32 KATs

TEST(Crc32, MatchesStandardCheckValues) {
  // The IEEE 802.3 reflected CRC-32 check value and friends.
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926U);
  EXPECT_EQ(util::crc32("", 0), 0x00000000U);
  EXPECT_EQ(util::crc32("a", 1), 0xE8B7BE43U);
  EXPECT_EQ(util::crc32("abc", 3), 0x352441C2U);
  EXPECT_EQ(util::crc32("The quick brown fox jumps over the lazy dog", 43),
            0x414FA339U);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<float> payload(64, 1.0F);
  const std::size_t bytes = payload.size() * sizeof(float);
  const std::uint32_t clean = util::crc32(payload.data(), bytes);
  std::uint32_t bits = 0;
  std::memcpy(&bits, &payload[17], sizeof(bits));
  bits ^= 1U << 13U;
  std::memcpy(&payload[17], &bits, sizeof(bits));
  EXPECT_NE(util::crc32(payload.data(), bytes), clean);
}

// ------------------------------------------- CRC-32 kernels across tiers

/// The bytewise reference: one lookup per byte in a table built bit by bit
/// from the polynomial. Each tier's kernel (slicing-by-8, the PCLMULQDQ
/// fold) must agree with it on every input.
class Crc32Oracle {
 public:
  Crc32Oracle() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
      }
      table_[i] = c;
    }
  }
  /// Advance the un-inverted register over one byte.
  [[nodiscard]] std::uint32_t step(std::uint32_t crc, std::uint8_t b) const {
    return table_[(crc ^ b) & 0xFFU] ^ (crc >> 8U);
  }
  [[nodiscard]] std::uint32_t crc(const std::vector<std::uint8_t>& v) const {
    std::uint32_t c = 0xFFFFFFFFU;
    for (const std::uint8_t b : v) c = step(c, b);
    return ~c;
  }

 private:
  std::uint32_t table_[256] = {};
};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64() >> 56U);
  return v;
}

/// Runs `check` once under every SIMD tier this CPU can execute, then
/// restores the active tier.
template <typename Check>
void for_each_tier(const Check& check) {
  const util::SimdTier before = util::active_simd();
  for (const util::SimdTier tier : util::available_simd_tiers()) {
    ASSERT_EQ(util::set_simd_tier(tier), tier);
    SCOPED_TRACE(std::string(util::simd_tier_name(tier)));
    check(tier);
  }
  util::set_simd_tier(before);
}

TEST(Crc32, EveryTierMatchesBytewiseOracleAtEveryOffsetAndLength) {
  // Offsets 0..63 cover every alignment of the 16-byte loads; lengths
  // 0..1100 cover the < 64-byte scalar path, the fold's 64-byte and
  // 16-byte loops, and every tail length under 16.
  constexpr std::size_t kMaxOffset = 64, kMaxLen = 1100;
  const std::vector<std::uint8_t> buf =
      random_bytes(kMaxOffset + kMaxLen, 0xC5C32);
  const Crc32Oracle oracle;
  // want[off][len]: the oracle over buf[off, off + len), one pass per off.
  std::vector<std::vector<std::uint32_t>> want(kMaxOffset);
  for (std::size_t off = 0; off < kMaxOffset; ++off) {
    std::uint32_t c = 0xFFFFFFFFU;
    want[off].push_back(~c);
    for (std::size_t len = 1; len <= kMaxLen; ++len) {
      c = oracle.step(c, buf[off + len - 1]);
      want[off].push_back(~c);
    }
  }
  for_each_tier([&](util::SimdTier) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(util::crc32(buf.data() + off, len), want[off][len])
            << "offset " << off << " length " << len;
      }
    }
  });
}

TEST(Crc32, EveryTierMatchesBytewiseOracleOnLargeAndConstantBuffers) {
  const Crc32Oracle oracle;
  const std::vector<std::vector<std::uint8_t>> inputs = {
      random_bytes(std::size_t{1} << 20U, 0xB10B),
      std::vector<std::uint8_t>(100003, 0x00),
      std::vector<std::uint8_t>(100003, 0xFF),
  };
  for_each_tier([&](util::SimdTier tier) {
    for (const auto& v : inputs) {
      const std::uint32_t want = oracle.crc(v);
      EXPECT_EQ(util::crc32(v.data(), v.size()), want) << v.size();
      // The kernel's register carries across pieces: a split message
      // checksums the same as the whole one.
      const auto update = simd::kernels_for(tier).crc32_update;
      const std::size_t cut = v.size() / 3 + 5;
      const std::uint32_t head = update(0xFFFFFFFFU, v.data(), cut);
      EXPECT_EQ(~update(head, v.data() + cut, v.size() - cut), want)
          << v.size();
    }
  });
}

// -------------------------------------------------------- backoff schedule

TEST(ArqBackoff, GrowsExponentiallyAndCaps) {
  ArqConfig cfg;
  cfg.initial_backoff_seconds = 0.05;
  cfg.backoff_factor = 2.0;
  cfg.max_backoff_seconds = 0.3;
  EXPECT_DOUBLE_EQ(arq_backoff_seconds(cfg, 1), 0.05);
  EXPECT_DOUBLE_EQ(arq_backoff_seconds(cfg, 2), 0.1);
  EXPECT_DOUBLE_EQ(arq_backoff_seconds(cfg, 3), 0.2);
  EXPECT_DOUBLE_EQ(arq_backoff_seconds(cfg, 4), 0.3);  // capped
  EXPECT_DOUBLE_EQ(arq_backoff_seconds(cfg, 40), 0.3);
  EXPECT_THROW(arq_backoff_seconds(cfg, 0), Error);
}

// ------------------------------------------------------- ReliableChannel

TEST(ReliableChannel, RejectsInvalidConfig) {
  ArqConfig tiny;
  tiny.packet_bits = 16;  // smaller than one float
  EXPECT_THROW(ReliableChannel(nullptr, tiny), Error);
  ArqConfig negative;
  negative.max_retries = -1;
  EXPECT_THROW(ReliableChannel(nullptr, negative), Error);
  ArqConfig shrink;
  shrink.backoff_factor = 0.5;
  EXPECT_THROW(ReliableChannel(nullptr, shrink), Error);
}

TEST(ReliableChannel, PerfectLinkChargesFramingOverheadOnly) {
  ArqConfig cfg;
  cfg.packet_bits = 128;  // 4 floats per frame
  const ReliableChannel arq(nullptr, cfg);
  std::vector<float> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<float>(i);
  }
  const auto original = payload;
  Rng rng(7);
  const auto stats = arq.apply(payload, rng);
  EXPECT_EQ(payload, original);
  EXPECT_EQ(stats.payload_scalars, 100U);
  EXPECT_EQ(stats.packets_total, 25U);  // ceil(100 / 4)
  // 100 floats + one 32-bit CRC per frame, each sent exactly once.
  EXPECT_EQ(stats.bits_on_air, 100U * 32U + 25U * 32U);
  EXPECT_EQ(stats.retransmissions, 0U);
  EXPECT_EQ(stats.residual_errors, 0U);
  EXPECT_DOUBLE_EQ(stats.backoff_seconds, 0.0);  // selective repeat, no NAKs
}

TEST(ReliableChannel, StopAndWaitPaysAckRttPerAttempt) {
  ArqConfig cfg;
  cfg.mode = ArqMode::StopAndWait;
  cfg.packet_bits = 128;
  cfg.ack_rtt_seconds = 0.01;
  const ReliableChannel arq(nullptr, cfg);
  std::vector<float> payload(16, 1.0F);  // 4 frames, one attempt each
  Rng rng(7);
  const auto stats = arq.apply(payload, rng);
  EXPECT_EQ(stats.retransmissions, 0U);
  EXPECT_DOUBLE_EQ(stats.backoff_seconds, 4 * 0.01);
}

TEST(ReliableChannel, EmptyPayloadIsFree) {
  const ReliableChannel arq(nullptr, {});
  std::vector<float> payload;
  Rng rng(3);
  const auto stats = arq.apply(payload, rng);
  EXPECT_EQ(stats.bits_on_air, 0U);
  EXPECT_EQ(stats.packets_total, 0U);
}

TEST(ReliableChannel, RetransmitsCorruptedFramesUntilClean) {
  // BER high enough that most frames need at least one retransmission, with
  // retries to spare: delivery ends up clean and every extra attempt is
  // charged on the air and in backoff time.
  const auto inner = make_bit_error(1e-3);
  ArqConfig cfg;
  cfg.packet_bits = 1024;  // 32 floats per frame
  cfg.max_retries = 64;
  const ReliableChannel arq(inner.get(), cfg);
  std::vector<float> payload(256, 1.25F);
  const auto original = payload;
  Rng rng(11);
  const auto stats = arq.apply(payload, rng);
  EXPECT_EQ(payload, original);  // clean delivery
  EXPECT_EQ(stats.residual_errors, 0U);
  EXPECT_GT(stats.retransmissions, 0U);
  // Nominal traffic is 256 floats + 8 CRCs; retransmissions exceed it.
  EXPECT_GT(stats.bits_on_air, 256U * 32U + 8U * 32U);
  EXPECT_GT(stats.backoff_seconds, 0.0);
  EXPECT_GT(stats.bit_flips, 0U);  // the inner channel really did corrupt
}

TEST(ReliableChannel, DeliversResidualErrorsWhenRetriesExhausted) {
  // Half the bits flip on every attempt and no retries are allowed: each
  // frame is delivered corrupted and counted as a residual error.
  const auto inner = make_bit_error(0.5);
  ArqConfig cfg;
  cfg.packet_bits = 1024;
  cfg.max_retries = 0;
  const ReliableChannel arq(inner.get(), cfg);
  std::vector<float> payload(128, 1.0F);
  const auto original = payload;
  Rng rng(13);
  const auto stats = arq.apply(payload, rng);
  EXPECT_EQ(stats.retransmissions, 0U);
  EXPECT_EQ(stats.residual_errors, stats.packets_total);
  EXPECT_NE(payload, original);  // corrupted copy delivered anyway
  EXPECT_EQ(stats.bits_on_air, 128U * 32U + stats.packets_total * 32U);
}

TEST(ReliableChannel, DeterministicGivenTheCallerStream) {
  const auto inner = make_bit_error(5e-4);
  const ReliableChannel arq(inner.get(), {});
  std::vector<float> a(200, 2.0F);
  std::vector<float> b(200, 2.0F);
  Rng ra(21);
  Rng rb(21);
  const auto sa = arq.apply(a, ra);
  const auto sb = arq.apply(b, rb);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.bits_on_air, sb.bits_on_air);
  EXPECT_EQ(sa.retransmissions, sb.retransmissions);
  EXPECT_EQ(sa.residual_errors, sb.residual_errors);
  EXPECT_EQ(sa.bit_flips, sb.bit_flips);
  EXPECT_DOUBLE_EQ(sa.backoff_seconds, sb.backoff_seconds);
}

TEST(ReliableChannel, ApplyIsApplyScaledAtOne) {
  const auto inner = make_bit_error(5e-4);
  const ReliableChannel arq(inner.get(), {});
  std::vector<float> a(200, 2.0F);
  std::vector<float> b(200, 2.0F);
  Rng ra(33);
  Rng rb(33);
  const auto sa = arq.apply(a, ra);
  const auto sb = arq.apply_scaled(b, rb, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.bits_on_air, sb.bits_on_air);
  EXPECT_EQ(sa.retransmissions, sb.retransmissions);
}

TEST(ReliableChannel, ErrorScaleRaisesTheRetransmissionCost) {
  // The fault model's per-client link multiplier reaches the inner channel
  // through the decorator: a much worse link costs many more attempts.
  const auto inner = make_bit_error(1e-4);
  ArqConfig cfg;
  cfg.max_retries = 64;
  const ReliableChannel arq(inner.get(), cfg);
  std::vector<float> nominal(512, 1.0F);
  std::vector<float> degraded(512, 1.0F);
  Rng ra(5);
  Rng rb(5);
  const auto s1 = arq.apply_scaled(nominal, ra, 1.0);
  const auto s50 = arq.apply_scaled(degraded, rb, 50.0);
  EXPECT_GT(s50.retransmissions, s1.retransmissions);
  EXPECT_GT(s50.bits_on_air, s1.bits_on_air);
}

TEST(ReliableChannel, NameDescribesModeAndInner) {
  const auto inner = make_bit_error(1e-3);
  const ReliableChannel arq(inner.get(), {});
  EXPECT_NE(arq.name().find("selective-repeat"), std::string::npos);
  const ReliableChannel bare(nullptr, {});
  EXPECT_NE(bare.name().find("perfect"), std::string::npos);
}

// --------------------------------------- packet_error_rate / LTE edge cases

TEST(PacketErrorRate, MonotoneInBerAndPacketSize) {
  EXPECT_DOUBLE_EQ(packet_error_rate(0.0, 8192), 0.0);
  EXPECT_DOUBLE_EQ(packet_error_rate(1.0, 8), 1.0);
  EXPECT_LT(packet_error_rate(1e-5, 1024), packet_error_rate(1e-4, 1024));
  EXPECT_LT(packet_error_rate(1e-4, 1024), packet_error_rate(1e-4, 8192));
  // Small-p limit: 1 - (1-p)^n ~= n*p.
  EXPECT_NEAR(packet_error_rate(1e-8, 1000), 1e-5, 1e-8);
}

TEST(LteLinkModel, UploadSecondsEdgeCases) {
  LteLinkModel link;
  EXPECT_DOUBLE_EQ(link.upload_seconds(0, true), 0.0);
  EXPECT_DOUBLE_EQ(link.upload_seconds(0, false), 0.0);
  // Exact rate arithmetic, including the 1/N medium share charged as N x
  // the dedicated-link time.
  EXPECT_DOUBLE_EQ(link.upload_seconds(5'000'000, true), 1.0);
  EXPECT_DOUBLE_EQ(link.upload_seconds(1'600'000, false), 1.0);
  link.shared_clients = 10;
  EXPECT_DOUBLE_EQ(link.upload_seconds(1'600'000, false), 10.0);
  link.shared_clients = 0;
  EXPECT_THROW(link.upload_seconds(1, true), Error);
  LteLinkModel dead;
  dead.uncoded_rate_bps = 0.0;
  EXPECT_THROW(dead.upload_seconds(1, true), Error);
}

TEST(LteLinkModel, ValidateEnforcesPhysicalConfigurations) {
  LteLinkModel link;
  EXPECT_NO_THROW(link.validate());  // paper defaults are feasible
  LteLinkModel shared_zero;
  shared_zero.shared_clients = 0;
  EXPECT_THROW(shared_zero.validate(), Error);
  LteLinkModel negative;
  negative.coded_rate_bps = -1.0;
  EXPECT_THROW(negative.validate(), Error);
  // At -30 dB the Shannon capacity of 5 MHz is ~7 kbit/s: neither default
  // rate is achievable.
  LteLinkModel impossible;
  impossible.snr_db = -30.0;
  EXPECT_THROW(impossible.validate(), Error);
  EXPECT_LT(impossible.shannon_capacity_bps(), 1e4);
  EXPECT_GT(impossible.shannon_capacity_bps(), 0.0);
}

}  // namespace
}  // namespace fhdnn::channel
