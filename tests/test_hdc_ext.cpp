// Tests for the extended HDC components: classic HD algebra (bind/bundle),
// the ID-level encoder, and the sign-compressed (one bit per
// dimension) prototype model.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/id_level_encoder.hpp"
#include "hdc/ops.hpp"
#include "hdc/packed.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

using namespace fhdnn::hdc;

/// Fraction of positions where two bipolar hypervectors differ.
double hamming_distance(const Tensor& a, const Tensor& b) {
  std::int64_t differ = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) differ += a.at(i) != b.at(i);
  return static_cast<double>(differ) / static_cast<double>(a.numel());
}

// ---------------------------------------------------------------- algebra

TEST(HdAlgebra, RandomBipolarBalanced) {
  Rng rng(1);
  const Tensor v = random_bipolar(10000, rng);
  double sum = 0.0;
  for (const float x : v.data()) {
    EXPECT_TRUE(x == 1.0F || x == -1.0F);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.05);
}

TEST(HdAlgebra, BundleSimilarToMembers) {
  Rng rng(4);
  std::vector<Tensor> members;
  for (int i = 0; i < 5; ++i) members.push_back(random_bipolar(4096, rng));
  const Tensor maj = bundle_majority(members);
  const Tensor stranger = random_bipolar(4096, rng);
  for (const auto& m : members) {
    EXPECT_LT(hamming_distance(maj, m), 0.35);
  }
  EXPECT_NEAR(hamming_distance(maj, stranger), 0.5, 0.05);
}

TEST(HdAlgebra, BundleSums) {
  const Tensor a = Tensor::from({1, -1, 1});
  const Tensor b = Tensor::from({1, 1, -1});
  const Tensor s = bundle({a, b});
  EXPECT_EQ(s(0), 2.0F);
  EXPECT_EQ(s(1), 0.0F);
  EXPECT_THROW(bundle({}), Error);
}

TEST(HdAlgebra, SignConvention) {
  const Tensor v = Tensor::from({-0.5F, 0.0F, 2.0F});
  const Tensor s = sign(v);
  EXPECT_EQ(s(0), -1.0F);
  EXPECT_EQ(s(1), 1.0F);  // sign(0) := +1
  EXPECT_EQ(s(2), 1.0F);
}

// ---------------------------------------------------------------- id-level

TEST(IdLevelEncoder, QuantizeEdges) {
  Rng rng(6);
  IdLevelEncoder enc(4, 256, 8, 0.0F, 1.0F, rng);
  EXPECT_EQ(enc.quantize(-5.0F), 0);
  EXPECT_EQ(enc.quantize(0.0F), 0);
  EXPECT_EQ(enc.quantize(0.999F), 7);
  EXPECT_EQ(enc.quantize(1.0F), 7);
  EXPECT_EQ(enc.quantize(9.0F), 7);
  EXPECT_EQ(enc.quantize(0.5F), 4);
}

TEST(IdLevelEncoder, LevelSimilarityDecaysWithDistance) {
  Rng rng(7);
  // One feature: encode(v) = ID (.) L_q(v), so two values' encodings are
  // exactly as similar as their level hypervectors.
  IdLevelEncoder enc(1, 8192, 16, 0.0F, 1.0F, rng);
  const auto level_similarity = [&](std::int64_t a, std::int64_t b) {
    const Tensor ha = enc.encode(Tensor(Shape{1}, {(a + 0.5F) / 16.0F}));
    const Tensor hb = enc.encode(Tensor(Shape{1}, {(b + 0.5F) / 16.0F}));
    double dot = 0.0;
    for (std::int64_t j = 0; j < 8192; ++j) dot += ha(j) * hb(j);
    return dot / 8192.0;
  };
  // Adjacent levels very similar, extreme levels ~orthogonal.
  EXPECT_GT(level_similarity(0, 1), 0.8);
  EXPECT_GT(level_similarity(0, 4), level_similarity(0, 12));
  EXPECT_LT(level_similarity(0, 15), 0.2);
  EXPECT_DOUBLE_EQ(level_similarity(3, 3), 1.0);
}

TEST(IdLevelEncoder, OutputsBipolar) {
  Rng rng(8);
  IdLevelEncoder enc(16, 512, 8, -1.0F, 1.0F, rng);
  Rng dr(9);
  const Tensor z = Tensor::randn(Shape{5, 16}, dr);
  const Tensor h = enc.encode(z);
  EXPECT_EQ(h.shape(), (Shape{5, 512}));
  for (const float v : h.data()) EXPECT_TRUE(v == 1.0F || v == -1.0F);
}

TEST(IdLevelEncoder, SimilarInputsSimilarCodes) {
  Rng rng(10);
  IdLevelEncoder enc(32, 4096, 16, -3.0F, 3.0F, rng);
  Rng dr(11);
  Tensor a = Tensor::randn(Shape{32}, dr);
  Tensor near = a;
  for (auto& v : near.data()) v += static_cast<float>(dr.normal(0.0, 0.05));
  const Tensor far = Tensor::randn(Shape{32}, dr);
  const Tensor ha = enc.encode(a), hn = enc.encode(near), hf = enc.encode(far);
  EXPECT_LT(hamming_distance(ha, hn), hamming_distance(ha, hf) - 0.1);
}

TEST(IdLevelEncoder, ClassifiesIsoletLikeData) {
  // End-to-end: ID-level encoding + HD classifier learns clustered data.
  Rng rng(12);
  data::IsoletSpec spec;
  spec.dims = 32;
  spec.classes = 4;
  spec.n = 240;
  spec.rank = 4;
  const auto ds = data::make_isolet_like(spec, rng);
  const auto split = data::train_test_split(ds, 0.25, rng);
  Rng er = rng.fork("enc");
  IdLevelEncoder enc(32, 2048, 16, -6.0F, 6.0F, er);
  const Tensor htr = enc.encode(split.train.x);
  const Tensor hte = enc.encode(split.test.x);
  HdClassifier clf(4, 2048);
  clf.bundle(htr, split.train.labels);
  for (int e = 0; e < 2; ++e) clf.refine_epoch(htr, split.train.labels);
  EXPECT_GT(clf.accuracy(hte, split.test.labels), 0.8);
}

TEST(IdLevelEncoder, Validation) {
  Rng rng(13);
  EXPECT_THROW(IdLevelEncoder(0, 256, 8, 0, 1, rng), Error);
  EXPECT_THROW(IdLevelEncoder(4, 256, 1, 0, 1, rng), Error);
  EXPECT_THROW(IdLevelEncoder(4, 256, 8, 1, 1, rng), Error);
  IdLevelEncoder enc(4, 256, 8, 0, 1, rng);
  EXPECT_THROW(enc.encode(Tensor(Shape{2, 5})), Error);
}

// ------------------------------------------------------------ sign model

TEST(SignModel, RoundTripSigns) {
  Rng rng(14);
  const Tensor protos = Tensor::randn(Shape{3, 100}, rng);
  const PackedModel m = pack_rows(protos);
  EXPECT_EQ(m.rows * m.d, 300);
  const Tensor back = unpack_rows(m);
  for (std::int64_t i = 0; i < protos.numel(); ++i) {
    EXPECT_EQ(back.at(i), protos.at(i) >= 0.0F ? 1.0F : -1.0F);
  }
}

TEST(SignModel, BinarizedClassifierRetainsAccuracy) {
  // Sign-compressing a trained prototype matrix costs little accuracy —
  // the justification for 1-bit transmission.
  Rng rng(17);
  data::IsoletSpec spec;
  spec.dims = 32;
  spec.classes = 4;
  spec.n = 240;
  const auto ds = data::make_isolet_like(spec, rng);
  const auto split = data::train_test_split(ds, 0.25, rng);
  Rng er = rng.fork("enc");
  hdc::RandomProjectionEncoder enc(32, 2048, er);
  const Tensor htr = enc.encode(split.train.x);
  const Tensor hte = enc.encode(split.test.x);
  HdClassifier clf(4, 2048);
  clf.bundle(htr, split.train.labels);
  const double full = clf.accuracy(hte, split.test.labels);
  clf.set_prototypes(unpack_rows(pack_rows(clf.prototypes())));
  const double binary = clf.accuracy(hte, split.test.labels);
  EXPECT_GT(binary, full - 0.1);
}

TEST(SignModel, Validation) {
  EXPECT_THROW(pack_rows(Tensor(Shape{4})), Error);
  EXPECT_THROW(unpack_rows(PackedModel{}), Error);
}

}  // namespace
}  // namespace fhdnn
