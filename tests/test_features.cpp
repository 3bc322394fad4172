// Tests for src/features: the frozen SimCLR stand-in extractor.
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "features/extractor.hpp"
#include "hdc/classifier.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

using features::FrozenFeatureExtractor;

FrozenFeatureExtractor::Config mnist_config() {
  FrozenFeatureExtractor::Config c;
  c.in_channels = 1;
  c.image_hw = 28;
  c.output_dim = 128;
  return c;
}

TEST(Extractor, OutputShape) {
  FrozenFeatureExtractor ext(mnist_config());
  Rng rng(1);
  const Tensor imgs = Tensor::rand(Shape{5, 1, 28, 28}, rng);
  const Tensor z = ext.extract(imgs);
  EXPECT_EQ(z.shape(), (Shape{5, 128}));
}

TEST(Extractor, DeterministicAcrossInstances) {
  // Two parties constructing the extractor from the same config get
  // identical features — the "shared pretrained model" property.
  FrozenFeatureExtractor a(mnist_config());
  FrozenFeatureExtractor b(mnist_config());
  Rng rng(2);
  const Tensor imgs = Tensor::rand(Shape{3, 1, 28, 28}, rng);
  EXPECT_EQ(a.extract(imgs).vec(), b.extract(imgs).vec());
}

TEST(Extractor, SeedChangesFeatures) {
  auto cfg2 = mnist_config();
  cfg2.seed = 999;
  FrozenFeatureExtractor a(mnist_config());
  FrozenFeatureExtractor b(cfg2);
  Rng rng(3);
  const Tensor imgs = Tensor::rand(Shape{2, 1, 28, 28}, rng);
  EXPECT_NE(a.extract(imgs).vec(), b.extract(imgs).vec());
}

TEST(Extractor, ExtractIsStateless) {
  FrozenFeatureExtractor ext(mnist_config());
  Rng rng(4);
  const Tensor imgs = Tensor::rand(Shape{2, 1, 28, 28}, rng);
  const auto z1 = ext.extract(imgs).vec();
  const auto z2 = ext.extract(imgs).vec();
  EXPECT_EQ(z1, z2);
}

TEST(Extractor, BatchSplitInvariant) {
  // Internal batching must not change results: extracting 70 images at once
  // equals extracting them in two chunks (covers the kExtractBatch seam).
  FrozenFeatureExtractor ext(mnist_config());
  Rng rng(5);
  const Tensor imgs = Tensor::rand(Shape{70, 1, 28, 28}, rng);
  const Tensor all = ext.extract(imgs);
  Tensor first(Shape{64, 1, 28, 28});
  std::copy_n(imgs.data().begin(), first.numel(), first.data().begin());
  const Tensor zf = ext.extract(first);
  for (std::int64_t i = 0; i < zf.numel(); ++i) {
    EXPECT_EQ(zf.at(i), all.at(i));
  }
}

TEST(Extractor, StandardizationNormalizes) {
  FrozenFeatureExtractor ext(mnist_config());
  Rng rng(6);
  const auto ds = data::synthetic_mnist(300, rng);
  ext.fit_standardization(ds.x);
  const Tensor z = ext.extract(ds.x);
  // Per-dimension mean ~0 and variance ~1 on the calibration set itself.
  for (std::int64_t j = 0; j < 16; ++j) {  // spot-check some dims
    double sum = 0.0, sq = 0.0;
    for (std::int64_t i = 0; i < z.dim(0); ++i) {
      sum += z(i, j);
      sq += static_cast<double>(z(i, j)) * z(i, j);
    }
    const double mean = sum / z.dim(0);
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(sq / z.dim(0) - mean * mean, 1.0, 0.2);
  }
  EXPECT_THROW(ext.fit_standardization(ds.x), Error);  // fit-once contract
}

TEST(Extractor, FeaturesAreClassInformative) {
  // A nearest-class-mean readout on frozen features must far exceed chance;
  // this is the property FHDnn's whole premise rests on.
  FrozenFeatureExtractor ext(mnist_config());
  Rng rng(7);
  auto full = data::synthetic_mnist(400, rng);
  ext.fit_standardization(full.x);
  auto split = data::train_test_split(full, 0.25, rng);
  const Tensor ztr = ext.extract(split.train.x);
  const Tensor zte = ext.extract(split.test.x);
  hdc::HdClassifier ncm(10, 128);
  ncm.bundle(ztr, split.train.labels);
  EXPECT_GT(ncm.accuracy(zte, split.test.labels), 0.8);
}

TEST(Extractor, RejectsWrongGeometry) {
  FrozenFeatureExtractor ext(mnist_config());
  EXPECT_THROW(ext.extract(Tensor(Shape{1, 3, 28, 28})), Error);
  EXPECT_THROW(ext.extract(Tensor(Shape{1, 1, 32, 32})), Error);
  EXPECT_THROW(ext.extract(Tensor(Shape{28, 28})), Error);
}

TEST(Extractor, ConfigValidation) {
  auto cfg = mnist_config();
  cfg.image_hw = 4;
  EXPECT_THROW(FrozenFeatureExtractor{cfg}, Error);
  cfg = mnist_config();
  cfg.output_dim = 0;
  EXPECT_THROW(FrozenFeatureExtractor{cfg}, Error);
}

}  // namespace
}  // namespace fhdnn
