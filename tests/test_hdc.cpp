// Tests for src/hdc: random-projection encoder, HD classifier, quantizer.
// Includes property-style TEST_P sweeps for the holographic reconstruction
// error (paper Eq. 5) and quantizer bitwidths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "data/synthetic.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/quantizer.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fhdnn {
namespace {

using hdc::HdClassifier;
using hdc::Quantizer;
using hdc::RandomProjectionEncoder;

TEST(Encoder, RowsOnUnitSphere) {
  Rng rng(1);
  RandomProjectionEncoder enc(16, 64, rng);
  // encode_linear(I) = Phi^T: row j holds column j of Phi.
  Tensor eye(Shape{16, 16});
  for (std::int64_t j = 0; j < 16; ++j) eye(j, j) = 1.0F;
  const Tensor phi_t = enc.encode_linear(eye);
  for (std::int64_t i = 0; i < 64; ++i) {
    double norm = 0.0;
    for (std::int64_t j = 0; j < 16; ++j) norm += phi_t(j, i) * phi_t(j, i);
    EXPECT_NEAR(norm, 1.0, 1e-5);
  }
}

TEST(Encoder, OutputsAreSigns) {
  Rng rng(2);
  RandomProjectionEncoder enc(8, 128, rng);
  Rng dr(3);
  const Tensor z = Tensor::randn(Shape{4, 8}, dr);
  const Tensor h = enc.encode(z);
  EXPECT_EQ(h.shape(), (Shape{4, 128}));
  for (const float v : h.data()) EXPECT_TRUE(v == 1.0F || v == -1.0F);
}

TEST(Encoder, SignConventionAtZero) {
  Rng rng(4);
  RandomProjectionEncoder enc(4, 16, rng);
  const Tensor z(Shape{4});  // all zeros -> Phi z = 0 -> sign := +1
  const Tensor h = enc.encode(z);
  for (const float v : h.data()) EXPECT_EQ(v, 1.0F);
}

TEST(Encoder, DeterministicSharedSeed) {
  Rng a(5), b(5);
  RandomProjectionEncoder e1(8, 32, a);
  RandomProjectionEncoder e2(8, 32, b);
  Rng dr(6);
  const Tensor z = Tensor::randn(Shape{3, 8}, dr);
  EXPECT_EQ(e1.encode_linear(z).vec(), e2.encode_linear(z).vec());
}

TEST(Encoder, SingleAndBatchedAgree) {
  Rng rng(6);
  RandomProjectionEncoder enc(8, 32, rng);
  Rng dr(7);
  const Tensor z = Tensor::randn(Shape{1, 8}, dr);
  const Tensor hb = enc.encode(z);
  const Tensor hs = enc.encode(z.reshaped(Shape{8}));
  EXPECT_EQ(hs.shape(), (Shape{32}));
  for (std::int64_t i = 0; i < 32; ++i) EXPECT_EQ(hb(0, i), hs(i));
}

TEST(Encoder, SimilarInputsSimilarCodes) {
  // Random projection + sign preserves angular similarity: closer feature
  // vectors share more code bits.
  Rng rng(8);
  RandomProjectionEncoder enc(32, 2048, rng);
  Rng dr(9);
  Tensor a = Tensor::randn(Shape{32}, dr);
  Tensor near = a;
  for (auto& v : near.data()) v += static_cast<float>(dr.normal(0.0, 0.1));
  const Tensor far = Tensor::randn(Shape{32}, dr);
  auto hamming_agree = [&](const Tensor& x, const Tensor& y) {
    const Tensor hx = enc.encode(x), hy = enc.encode(y);
    int agree = 0;
    for (std::int64_t i = 0; i < 2048; ++i) agree += (hx(i) == hy(i));
    return agree / 2048.0;
  };
  EXPECT_GT(hamming_agree(a, near), hamming_agree(a, far) + 0.2);
  EXPECT_NEAR(hamming_agree(a, far), 0.5, 0.06);  // random vectors ~orthogonal
}

TEST(Encoder, ReconstructUnbiasedOnLinearCodes) {
  // reconstruct(encode_linear(z)) ~ z with error O(1/sqrt(d)).
  Rng rng(10);
  RandomProjectionEncoder enc(16, 8192, rng);
  Rng dr(11);
  const Tensor z = Tensor::randn(Shape{16}, dr);
  const Tensor zr = enc.reconstruct(enc.encode_linear(z));
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_NEAR(zr(i), z(i), 0.35);
}

TEST(Encoder, DimensionMismatchThrows) {
  Rng rng(12);
  RandomProjectionEncoder enc(8, 32, rng);
  EXPECT_THROW(enc.encode(Tensor(Shape{2, 9})), Error);
  EXPECT_THROW(enc.reconstruct(Tensor(Shape{33})), Error);
  EXPECT_THROW(enc.encode(Tensor(Shape{2, 2, 2})), Error);
}

/// Reconstruction error shrinks as d grows (holographic property, Eq. 5).
class ReconstructionSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ReconstructionSweep, ErrorScalesInverseSqrtD) {
  const std::int64_t d = GetParam();
  Rng rng(13);
  RandomProjectionEncoder enc(16, d, rng);
  Rng dr(14);
  double total_mse = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const Tensor z = Tensor::randn(Shape{16}, dr);
    const Tensor zr = enc.reconstruct(enc.encode_linear(z));
    double mse = 0.0;
    for (std::int64_t i = 0; i < 16; ++i) {
      const double e = zr(i) - z(i);
      mse += e * e;
    }
    total_mse += mse / 16.0;
  }
  const double avg = total_mse / trials;
  // Theory: per-coordinate variance ~ (n/d) * ||z||^2/n = ||z||^2/d; with
  // E||z||^2 = 16 this is ~16/d. Allow generous slack.
  EXPECT_LT(avg, 5.0 * 16.0 / static_cast<double>(d) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(HdDims, ReconstructionSweep,
                         ::testing::Values<std::int64_t>(512, 2048, 8192));

// ------------------------------------------------------------ classifier

/// Two well-separated Gaussian clusters encoded into HD space.
struct ClusterData {
  Tensor h_train, h_test;
  std::vector<std::int64_t> y_train, y_test;
};

ClusterData make_clusters(std::int64_t d, std::uint64_t seed) {
  Rng rng(seed);
  data::IsoletSpec spec;
  spec.dims = 32;
  spec.classes = 4;
  spec.n = 240;
  spec.separation = 1.5;
  spec.rank = 4;
  const auto ds = data::make_isolet_like(spec, rng);
  Rng enc_rng = rng.fork("enc");
  RandomProjectionEncoder enc(32, d, enc_rng);
  ClusterData out;
  const auto split = data::train_test_split(ds, 0.25, rng);
  out.h_train = enc.encode(split.train.x);
  out.h_test = enc.encode(split.test.x);
  out.y_train = split.train.labels;
  out.y_test = split.test.labels;
  return out;
}

TEST(Classifier, OneShotLearnsSeparableClusters) {
  const auto data = make_clusters(2048, 20);
  HdClassifier clf(4, 2048);
  clf.bundle(data.h_train, data.y_train);
  EXPECT_GT(clf.accuracy(data.h_test, data.y_test), 0.9);
}

TEST(Classifier, RefinementImprovesOrMaintains) {
  const auto data = make_clusters(1024, 21);
  HdClassifier clf(4, 1024);
  clf.bundle(data.h_train, data.y_train);
  const double acc0 = clf.accuracy(data.h_test, data.y_test);
  for (int e = 0; e < 3; ++e) clf.refine_epoch(data.h_train, data.y_train);
  EXPECT_GE(clf.accuracy(data.h_test, data.y_test), acc0 - 0.05);
}

TEST(Classifier, RefineReportsUpdates) {
  const auto data = make_clusters(1024, 22);
  HdClassifier clf(4, 1024);
  // Empty model: everything mispredicted or tied, many updates.
  const auto updates = clf.refine_epoch(data.h_train, data.y_train);
  EXPECT_GT(updates, 0);
  // After convergence, updates should drop.
  std::int64_t last = updates;
  for (int e = 0; e < 5; ++e) last = clf.refine_epoch(data.h_train, data.y_train);
  EXPECT_LT(last, updates);
}

TEST(Classifier, SimilaritiesInCosineRange) {
  const auto data = make_clusters(512, 23);
  HdClassifier clf(4, 512);
  clf.bundle(data.h_train, data.y_train);
  const Tensor sim = clf.similarities(data.h_test);
  for (const float v : sim.data()) {
    EXPECT_GE(v, -1.0001F);
    EXPECT_LE(v, 1.0001F);
  }
}

TEST(Classifier, MaskedSimilarityFullMaskMatches) {
  const auto data = make_clusters(512, 24);
  HdClassifier clf(4, 512);
  clf.bundle(data.h_train, data.y_train);
  const std::vector<bool> all(512, true);
  const Tensor s1 = clf.similarities(data.h_test);
  const Tensor s2 = clf.masked_similarities(data.h_test, all);
  for (std::int64_t i = 0; i < s1.numel(); ++i) {
    EXPECT_NEAR(s1.at(i), s2.at(i), 1e-5);
  }
}

TEST(Classifier, PartialDimensionsRetainAccuracy) {
  // The Fig. 5(b) property: large fractions of dimensions can be dropped
  // with modest accuracy loss.
  const auto data = make_clusters(4096, 25);
  HdClassifier clf(4, 4096);
  clf.bundle(data.h_train, data.y_train);
  for (int e = 0; e < 2; ++e) clf.refine_epoch(data.h_train, data.y_train);
  const double full = clf.accuracy(data.h_test, data.y_test);

  Rng rng(26);
  std::vector<bool> mask(4096, false);
  const auto keep = rng.sample_without_replacement(4096, 4096 / 5);  // keep 20%
  for (const auto i : keep) mask[i] = true;
  const Tensor sim = clf.masked_similarities(data.h_test, mask);
  std::size_t correct = 0;
  for (std::int64_t i = 0; i < sim.dim(0); ++i) {
    std::int64_t best = 0;
    for (std::int64_t k = 1; k < 4; ++k) {
      if (sim(i, k) > sim(i, best)) best = k;
    }
    correct += (best == data.y_test[static_cast<std::size_t>(i)]);
  }
  const double partial =
      static_cast<double>(correct) / static_cast<double>(sim.dim(0));
  EXPECT_GT(partial, full - 0.15);
}

TEST(Classifier, ValidatesInputs) {
  HdClassifier clf(3, 64);
  EXPECT_THROW(clf.bundle(Tensor(Shape{2, 32}), {0, 1}), Error);
  EXPECT_THROW(clf.bundle(Tensor(Shape{2, 64}), {0}), Error);
  EXPECT_THROW(clf.bundle(Tensor(Shape{2, 64}), {0, 3}), Error);
  EXPECT_THROW(clf.set_prototypes(Tensor(Shape{2, 64})), Error);
  EXPECT_THROW(HdClassifier(1, 64), Error);
  std::vector<bool> short_mask(32, true);
  EXPECT_THROW(clf.masked_similarities(Tensor(Shape{1, 64}), short_mask), Error);
}

TEST(Classifier, BadLastLabelLeavesPrototypesUntouched) {
  // Labels are validated before any prototype changes, so a bad label at
  // the end of a batch cannot leave a half-applied update behind.
  Rng rng(27);
  const Tensor h = Tensor::randn(Shape{4, 64}, rng);
  const std::vector<std::int64_t> bad = {0, 1, 2, 3};  // K = 3
  HdClassifier clf(3, 64);
  clf.set_prototypes(Tensor::randn(Shape{3, 64}, rng));
  const std::vector<float> before = clf.prototypes().vec();
  const auto unchanged = [&] {
    return std::memcmp(before.data(), clf.prototypes().data().data(),
                       before.size() * sizeof(float)) == 0;
  };
  EXPECT_THROW(clf.bundle(h, bad), Error);
  EXPECT_TRUE(unchanged());
  EXPECT_THROW(clf.refine_epoch(h, bad), Error);
  EXPECT_TRUE(unchanged());
}

// ------------------------------------------- bit-exactness vs. reference
//
// The classifier runs on raw row pointers with four class chains in flight
// and cached prototype norms. These references are the plain per-element
// loops it replaced; every result must match them bit for bit.

namespace ref {

Tensor similarities(const Tensor& c, const Tensor& h,
                    const std::vector<bool>* mask = nullptr) {
  const std::int64_t k_n = c.dim(0), d = c.dim(1), n = h.dim(0);
  const auto keep = [&](std::int64_t j) {
    return mask == nullptr || (*mask)[static_cast<std::size_t>(j)];
  };
  std::vector<double> cnorm(static_cast<std::size_t>(k_n));
  for (std::int64_t k = 0; k < k_n; ++k) {
    double s = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      if (keep(j)) s += static_cast<double>(c(k, j)) * c(k, j);
    }
    cnorm[static_cast<std::size_t>(k)] = std::sqrt(s);
  }
  Tensor sim(Shape{n, k_n});
  for (std::int64_t i = 0; i < n; ++i) {
    double hnorm = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      if (keep(j)) hnorm += static_cast<double>(h(i, j)) * h(i, j);
    }
    hnorm = std::sqrt(hnorm);
    for (std::int64_t k = 0; k < k_n; ++k) {
      double dot = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        if (keep(j)) dot += static_cast<double>(h(i, j)) * c(k, j);
      }
      const double denom = hnorm * cnorm[static_cast<std::size_t>(k)];
      sim(i, k) = denom > 0.0 ? static_cast<float>(dot / denom) : 0.0F;
    }
  }
  return sim;
}

std::vector<std::int64_t> predict(const Tensor& c, const Tensor& h) {
  const Tensor sim = similarities(c, h);
  std::vector<std::int64_t> out(static_cast<std::size_t>(sim.dim(0)));
  for (std::int64_t i = 0; i < sim.dim(0); ++i) {
    std::int64_t best = 0;
    float best_v = sim(i, 0);
    for (std::int64_t k = 1; k < sim.dim(1); ++k) {
      if (sim(i, k) > best_v) {
        best_v = sim(i, k);
        best = k;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::int64_t refine_epoch(Tensor& c, const Tensor& h,
                          const std::vector<std::int64_t>& labels) {
  const std::int64_t k_n = c.dim(0), d = c.dim(1);
  std::int64_t updates = 0;
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    std::int64_t best = 0;
    double best_sim = -2.0;
    for (std::int64_t k = 0; k < k_n; ++k) {
      double dot = 0.0, cn = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        dot += static_cast<double>(h(i, j)) * c(k, j);
        cn += static_cast<double>(c(k, j)) * c(k, j);
      }
      const double sim = cn > 0.0 ? dot / std::sqrt(cn) : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = k;
      }
    }
    if (best == y) continue;
    for (std::int64_t j = 0; j < d; ++j) {
      c(y, j) += h(i, j);
      c(best, j) -= h(i, j);
    }
    ++updates;
  }
  return updates;
}

}  // namespace ref

/// Bitwise equality (so +0 and -0 differ), except that any two NaNs
/// match: when two NaNs meet in one addition IEEE 754 leaves the result's
/// payload to the implementation, and the compiler may commute operands.
void expect_hexfloat_eq(const Tensor& got, const Tensor& want,
                        const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const bool both_nan = std::isnan(got.at(i)) && std::isnan(want.at(i));
    ASSERT_TRUE(both_nan || std::bit_cast<std::uint32_t>(got.at(i)) ==
                                std::bit_cast<std::uint32_t>(want.at(i)))
        << what << " at flat " << i << ": " << std::hexfloat << got.at(i)
        << " vs reference " << want.at(i);
  }
}

// kCancelling makes every dot product cancel exactly in real arithmetic
// (see cancel_in_pairs), so what the kernel returns is the rounding residue
// of its summation order: a split or reordered sum changes the float
// results, not only the low bits of a double.
enum class Payload { kNormal, kZeroPrototypes, kSpecials, kCancelling };

/// Spreads magnitudes over 2^0..2^40, then pairs up random columns (p, q)
/// with h(:, q) = h(:, p) and c(:, q) = -c(:, p): each pair's products
/// cancel, so every dot is zero in real arithmetic.
void cancel_in_pairs(Tensor& h, Tensor& c, Rng& rng) {
  for (Tensor* t : {&h, &c}) {
    for (float& v : t->data()) {
      v = std::ldexp(v, static_cast<int>(rng.randint(0, 40)));
    }
  }
  const std::int64_t d = h.dim(1);
  std::vector<std::int64_t> cols(static_cast<std::size_t>(d));
  for (std::int64_t j = 0; j < d; ++j) cols[static_cast<std::size_t>(j)] = j;
  rng.shuffle(cols);
  for (std::size_t t = 0; t + 1 < cols.size(); t += 2) {
    const std::int64_t p = cols[t], q = cols[t + 1];
    for (std::int64_t i = 0; i < h.dim(0); ++i) h(i, q) = h(i, p);
    for (std::int64_t k = 0; k < c.dim(0); ++k) c(k, q) = -c(k, p);
  }
}

/// Writes ±0, ±Inf and NaN over a few spread-out entries.
void sprinkle_specials(Tensor& t, std::uint64_t salt) {
  const float specials[] = {0.0F, -0.0F, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  auto v = t.data();
  for (std::size_t i = salt % 11; i < v.size(); i += 37) {
    v[i] = specials[(i / 37 + salt) % 5];
  }
}

struct BitExactCase {
  std::int64_t k, d;
  Payload payload;
  std::int64_t n = 9;  // query rows
};

std::string case_name(const BitExactCase& c) {
  const char* p = c.payload == Payload::kNormal           ? "normal"
                  : c.payload == Payload::kZeroPrototypes ? "zero-prototypes"
                  : c.payload == Payload::kSpecials       ? "specials"
                                                          : "cancelling";
  return "K=" + std::to_string(c.k) + " d=" + std::to_string(c.d) + " " + p +
         " n=" + std::to_string(c.n);
}

/// K sweeps both sides of the 8-, 16- and 32-lane register edges the
/// kernels tile classes with; n = 9 and the short batches leave the query
/// tiles (4 or 8 rows) partly filled, also once split across 4 threads.
std::vector<BitExactCase> bit_exact_cases() {
  std::vector<BitExactCase> out;
  for (const std::int64_t k : {2, 3, 4, 5, 8, 9, 16, 17, 26, 33}) {
    for (const std::int64_t d : {1, 63, 10001}) {
      for (const Payload p : {Payload::kNormal, Payload::kZeroPrototypes,
                              Payload::kSpecials, Payload::kCancelling}) {
        out.push_back({k, d, p});
      }
    }
    for (const std::int64_t n : {1, 2, 5, 13}) {
      out.push_back({k, 63, Payload::kNormal, n});
      out.push_back({k, 63, Payload::kSpecials, n});
    }
  }
  return out;
}

/// Every kernel tier at 1 and 4 threads; restores both on exit.
class TierSweep {
 public:
  TierSweep() : threads_(parallel::num_threads()), tier_(util::active_simd()) {}
  ~TierSweep() {
    parallel::set_num_threads(threads_);
    util::set_simd_tier(tier_);
  }
  TierSweep(const TierSweep&) = delete;
  TierSweep& operator=(const TierSweep&) = delete;

  template <typename Check>
  void run(const Check& check) {
    for (const auto tier : util::available_simd_tiers()) {
      util::set_simd_tier(tier);
      for (const int threads : {1, 4}) {
        parallel::set_num_threads(threads);
        check(std::string(" tier=") + std::string(util::simd_tier_name(tier)) +
              " threads=" + std::to_string(threads));
      }
    }
  }

 private:
  int threads_;
  util::SimdTier tier_;
};

struct CaseData {
  Tensor c, h;
  std::vector<std::int64_t> labels;
  std::vector<bool> mask;
};

CaseData make_case(const BitExactCase& bc) {
  Rng rng(static_cast<std::uint64_t>(1000 * bc.k + bc.d + 100000 * bc.n));
  const std::int64_t n = bc.n;
  CaseData out;
  out.h = Tensor::randn(Shape{n, bc.d}, rng);
  out.c = bc.payload == Payload::kZeroPrototypes
              ? Tensor(Shape{bc.k, bc.d})
              : Tensor::randn(Shape{bc.k, bc.d}, rng);
  // One all-zero query row exercises hnorm == 0.
  for (std::int64_t j = 0; j < bc.d; ++j) out.h(n - 1, j) = 0.0F;
  if (bc.payload == Payload::kSpecials) {
    sprinkle_specials(out.h, 1);
    sprinkle_specials(out.c, 2);
  }
  if (bc.payload == Payload::kCancelling) cancel_in_pairs(out.h, out.c, rng);
  for (std::int64_t i = 0; i < n; ++i) {
    out.labels.push_back(rng.randint(0, bc.k - 1));
  }
  out.mask.resize(static_cast<std::size_t>(bc.d));
  for (std::int64_t j = 0; j < bc.d; ++j) {
    out.mask[static_cast<std::size_t>(j)] = rng.bernoulli(0.6);
  }
  return out;
}

TEST(ClassifierBitExact, InferenceMatchesReference) {
  TierSweep sweep;
  for (const auto& bc : bit_exact_cases()) {
    const CaseData data = make_case(bc);
    const Tensor want = ref::similarities(data.c, data.h);
    const Tensor want_masked = ref::similarities(data.c, data.h, &data.mask);
    const auto want_pred = ref::predict(data.c, data.h);
    HdClassifier clf(bc.k, bc.d);
    clf.set_prototypes(data.c);
    sweep.run([&](const std::string& at) {
      const std::string name = case_name(bc) + at;
      expect_hexfloat_eq(clf.similarities(data.h), want,
                         "similarities " + name);
      expect_hexfloat_eq(clf.masked_similarities(data.h, data.mask),
                         want_masked, "masked_similarities " + name);
      EXPECT_EQ(clf.predict(data.h), want_pred) << "predict " << name;
    });
  }
}

TEST(ClassifierBitExact, RefinementMatchesReference) {
  TierSweep sweep;
  for (const auto& bc : bit_exact_cases()) {
    const CaseData data = make_case(bc);
    // Two epochs: the second starts from prototypes the first updated.
    Tensor want[2];
    std::int64_t want_updates[2];
    Tensor c = data.c;
    for (int e = 0; e < 2; ++e) {
      want_updates[e] = ref::refine_epoch(c, data.h, data.labels);
      want[e] = c;
    }
    sweep.run([&](const std::string& at) {
      const std::string name = "refine_epoch " + case_name(bc) + at;
      HdClassifier clf(bc.k, bc.d);
      clf.set_prototypes(data.c);
      for (int e = 0; e < 2; ++e) {
        EXPECT_EQ(clf.refine_epoch(data.h, data.labels), want_updates[e])
            << name << " epoch " << e;
        expect_hexfloat_eq(clf.prototypes(), want[e],
                           name + " epoch " + std::to_string(e));
      }
    });
  }
}

// ------------------------------------------------------------ quantizer

std::vector<float> dequantized(const Quantizer& q,
                               const hdc::QuantizedVector& qv) {
  std::vector<float> out(qv.values.size());
  q.dequantize_into(qv, out);
  return out;
}

/// Worst-case absolute round-trip error for a vector with the given max
/// magnitude: half a quantization step, max|c| / (2 * (2^(B-1)-1)), plus
/// one float32 ulp of the value range (the dequantized value is a float).
double max_roundtrip_error(const Quantizer& q, double max_abs) {
  return max_abs / (2.0 * static_cast<double>(q.max_level())) +
         max_abs * 1.2e-7;
}

TEST(Quantizer, RoundTripBoundedError) {
  Rng rng(30);
  Quantizer q(16);
  std::vector<float> v(500);
  rng.fill_normal(v, 0.0F, 10.0F);
  const auto qv = q.quantize(v);
  const auto back = dequantized(q, qv);
  float max_abs = 0.0F;
  for (const float x : v) max_abs = std::max(max_abs, std::abs(x));
  const double bound = max_roundtrip_error(q, max_abs) * 1.001;
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - v[i]), bound);
  }
}

TEST(Quantizer, GainSaturatesMaxElement) {
  Quantizer q(8);
  const std::vector<float> v{1.0F, -4.0F, 2.0F};
  const auto qv = q.quantize(v);
  EXPECT_EQ(qv.values[1], -q.max_level());
  EXPECT_NEAR(qv.gain, q.max_level() / 4.0, 1e-9);
}

TEST(Quantizer, AllZeroVector) {
  Quantizer q(8);
  const std::vector<float> v(10, 0.0F);
  const auto qv = q.quantize(v);
  EXPECT_EQ(qv.gain, 1.0);
  const auto back = dequantized(q, qv);
  for (const float x : back) EXPECT_EQ(x, 0.0F);
}

TEST(Quantizer, RejectsNonFiniteValues) {
  // NaN/Inf reaching llround is UB, and an Inf max_abs would silently zero
  // the gain for every other element — both must fail loudly instead.
  Quantizer q(8);
  EXPECT_THROW(
      q.quantize(std::vector<float>{1.0F,
                                    std::numeric_limits<float>::quiet_NaN()}),
      Error);
  EXPECT_THROW(
      q.quantize(std::vector<float>{std::numeric_limits<float>::infinity()}),
      Error);
  EXPECT_THROW(
      q.quantize(std::vector<float>{-std::numeric_limits<float>::infinity(),
                                    2.0F}),
      Error);
}

// ----------------------------------------------- quantizer rounding oracle

/// The quantizer's definition, written out: gain = max_level / max|v|,
/// q = clamp(std::llround(double(v) * gain)), back = float(double(q) / gain).
struct QuantOracle {
  double gain = 1.0;
  std::vector<std::int32_t> q;
  std::vector<float> back;
};

QuantOracle quant_oracle(const std::vector<float>& v, std::int32_t max_level) {
  float max_abs = 0.0F;
  for (const float x : v) max_abs = std::max(max_abs, std::abs(x));
  QuantOracle o;
  o.gain = max_abs > 0.0F ? static_cast<double>(max_level) / max_abs : 1.0;
  for (const float x : v) {
    const long long r = std::llround(static_cast<double>(x) * o.gain);
    o.q.push_back(static_cast<std::int32_t>(
        std::clamp<long long>(r, -max_level, max_level)));
    o.back.push_back(
        static_cast<float>(static_cast<double>(o.q.back()) / o.gain));
  }
  return o;
}

/// Inputs around every rounding and range edge for one bitwidth, each long
/// enough to fill whole vector registers and leave a tail.
std::vector<std::vector<float>> quant_edge_vectors(int bits) {
  const auto ml = static_cast<float>((1U << (bits - 1)) - 1U);
  const auto with_neighbours = [](std::vector<float>& out, float v) {
    out.push_back(v);
    out.push_back(std::nextafter(v, std::numeric_limits<float>::infinity()));
    out.push_back(std::nextafter(v, -std::numeric_limits<float>::infinity()));
  };
  std::vector<std::vector<float>> out;
  if (bits <= 24) {
    // max|v| = max_level exactly, so gain = 1 and v * gain = v: every
    // k + 0.5 below lands on an exact half.
    for (const float top : {ml, -ml}) {
      std::vector<float> v{top};
      for (const float k : {0.0F, 1.0F, 2.0F, ml - 1.0F}) {
        if (k + 0.5F < ml) {
          with_neighbours(v, k + 0.5F);
          with_neighbours(v, -(k + 0.5F));
        }
      }
      with_neighbours(v, ml);
      out.push_back(v);
    }
  } else {
    // max_level = 2^(B-1) - 1 is no float; with max|v| = 2^(B-1) the gain
    // is 1 - 2^(1-B) and +-2^(B-2) scale to the exact halves
    // +-(2^(B-2) - 1/2).
    const float top = std::ldexp(1.0F, bits - 1);
    const float mid = std::ldexp(1.0F, bits - 2);
    for (const float sign : {1.0F, -1.0F}) {
      std::vector<float> v{sign * top};
      with_neighbours(v, mid);
      with_neighbours(v, -mid);
      with_neighbours(v, 0.5F);
      with_neighbours(v, -1.5F);
      out.push_back(v);
    }
  }
  const float tiny = std::numeric_limits<float>::denorm_min();
  out.push_back({tiny, -3.0F * tiny, 2.0F * tiny, 0.0F, -0.0F, 5.0F * tiny});
  out.push_back(std::vector<float>(37, 0.0F));
  std::vector<float> signed_zeros(21, -0.0F);
  signed_zeros[4] = 0.0F;
  out.push_back(signed_zeros);
  Rng rng(static_cast<std::uint64_t>(300 + bits));
  std::vector<float> normal(1003);
  rng.fill_normal(normal, 0.0F, 10.0F);
  out.push_back(normal);
  // Pad each edge vector past two 16-lane registers, repeating its values,
  // so every value meets both a vector body and the scalar tail.
  for (auto& v : out) {
    const std::size_t n0 = v.size();
    while (v.size() < 39) v.push_back(v[v.size() % n0]);
  }
  return out;
}

TEST(QuantizerOracle, MatchesLlroundAndDivideAtEveryTier) {
  TierSweep sweep;
  for (const int bits : {2, 8, 16, 31}) {
    const Quantizer quant(bits);
    for (const auto& v : quant_edge_vectors(bits)) {
      const QuantOracle want = quant_oracle(v, quant.max_level());
      float max_abs = 0.0F;
      std::size_t max_at = 0;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (std::abs(v[i]) > max_abs) {
          max_abs = std::abs(v[i]);
          max_at = i;
        }
      }
      sweep.run([&](const std::string& at) {
        const std::string name = "B=" + std::to_string(bits) +
                                 " n=" + std::to_string(v.size()) + at;
        const auto got = quant.quantize(v);
        EXPECT_EQ(got.gain, want.gain) << name;
        EXPECT_EQ(got.values, want.q) << name;
        if (max_abs > 0.0F) {
          EXPECT_EQ(std::abs(got.values[max_at]), quant.max_level()) << name;
        }
        const auto back = dequantized(quant, got);
        ASSERT_EQ(back.size(), want.back.size()) << name;
        for (std::size_t i = 0; i < back.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(back[i]),
                    std::bit_cast<std::uint32_t>(want.back[i]))
              << name << " at " << i;
        }
        const auto n = static_cast<std::int64_t>(v.size());
        const Tensor rows = quant.dequantize_rows({got, got}, n);
        for (std::int64_t i = 0; i < 2 * n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(rows.at(i)),
                    std::bit_cast<std::uint32_t>(want.back[i % n]))
              << "dequantize_rows " << name << " at " << i;
        }
      });
    }
  }
}

TEST(QuantizerOracle, ScaleDownMatchesDivideForAnyLevelAtEveryTier) {
  // Received integers need not be the sender's: bit errors leave any value
  // in range, under gains that are no power of two.
  TierSweep sweep;
  Rng rng(301);
  for (const int bits : {2, 8, 16, 31}) {
    const Quantizer quant(bits);
    for (const double gain : {1.0 / 3.0, 12345.678, 0x1.fffffffffffffp-1}) {
      hdc::QuantizedVector qv;
      qv.gain = gain;
      qv.bitwidth = bits;
      for (int i = 0; i < 41; ++i) {
        qv.values.push_back(static_cast<std::int32_t>(
            rng.randint(-quant.max_level(), quant.max_level())));
      }
      qv.values[0] = quant.max_level();
      qv.values[1] = -quant.max_level();
      sweep.run([&](const std::string& at) {
        const auto back = dequantized(quant, qv);
        for (std::size_t i = 0; i < back.size(); ++i) {
          const auto want = static_cast<float>(
              static_cast<double>(qv.values[i]) / gain);
          ASSERT_EQ(std::bit_cast<std::uint32_t>(back[i]),
                    std::bit_cast<std::uint32_t>(want))
              << "B=" << bits << " gain=" << gain << at << " at " << i;
        }
      });
    }
  }
}

TEST(QuantizerOracle, NonFiniteThrowsTheSameErrorAtEveryTier) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Offenders in a vector body, in the scalar tail, and first of two.
  std::vector<std::vector<float>> cases;
  for (const std::size_t at : {std::size_t{3}, std::size_t{35}}) {
    for (const float bad : {nan, inf, -inf}) {
      std::vector<float> v(38, 1.5F);
      v[at] = bad;
      cases.push_back(v);
    }
  }
  std::vector<float> two(40, -2.0F);
  two[20] = -inf;
  two[30] = nan;
  cases.push_back(two);
  const Quantizer quant(16);
  TierSweep sweep;
  for (const auto& v : cases) {
    // The message names the first non-finite value, as the scalar loop's
    // check always did.
    float first_bad = 0.0F;
    for (const float x : v) {
      if (!std::isfinite(x)) {
        first_bad = x;
        break;
      }
    }
    std::ostringstream want;
    want << "quantize of non-finite value " << first_bad;
    sweep.run([&](const std::string& at) {
      try {
        (void)quant.quantize(v);
        ADD_FAILURE() << "no throw" << at;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(want.str()), std::string::npos)
            << e.what() << " lacks '" << want.str() << "'" << at;
      }
    });
  }
}

TEST(Quantizer, RowsIndependentGains) {
  Quantizer q(12);
  Tensor m(Shape{2, 3}, {1, 2, 3, 100, 200, 300});
  const auto rows = q.quantize_rows(m);
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_NEAR(rows[0].gain * 3.0, q.max_level(), 1e-6);
  EXPECT_NEAR(rows[1].gain * 300.0, q.max_level(), 1e-3);
  const Tensor back = q.dequantize_rows(rows, 3);
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(back.at(i), m.at(i), m.at(i) * 0.01 + 0.1);
  }
}

TEST(Quantizer, RejectsBadBitwidth) {
  EXPECT_THROW(Quantizer(1), Error);
  EXPECT_THROW(Quantizer(32), Error);
  EXPECT_NO_THROW(Quantizer(2));
  EXPECT_NO_THROW(Quantizer(31));
}

/// Round-trip error stays within half a quantization step at every width.
class QuantizerSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerSweep, ErrorWithinHalfAStep) {
  const int bits = GetParam();
  Rng rng(31);
  std::vector<float> v(200);
  rng.fill_normal(v, 0.0F, 5.0F);
  Quantizer q(bits);
  const auto back = dequantized(q, q.quantize(v));
  double max_err = 0.0;
  float max_abs = 0.0F;
  for (std::size_t i = 0; i < v.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(back[i] - v[i])));
    max_abs = std::max(max_abs, std::abs(v[i]));
  }
  EXPECT_LE(max_err, max_roundtrip_error(q, max_abs) * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, QuantizerSweep,
                         ::testing::Values(4, 8, 12, 16, 24));

}  // namespace
}  // namespace fhdnn
