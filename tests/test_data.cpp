// Tests for src/data: dataset container, synthetic generators, partitioners.
#include <gtest/gtest.h>

#include <set>

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace fhdnn {
namespace {

using data::Dataset;

Dataset tiny_feature_dataset() {
  Dataset ds;
  ds.x = Tensor(Shape{6, 2}, {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5});
  ds.labels = {0, 1, 0, 1, 0, 1};
  ds.num_classes = 2;
  ds.name = "tiny";
  return ds;
}

std::vector<std::int64_t> label_histogram(const Dataset& ds) {
  std::vector<std::int64_t> hist(static_cast<std::size_t>(ds.num_classes), 0);
  for (const auto y : ds.labels) ++hist[static_cast<std::size_t>(y)];
  return hist;
}

TEST(Dataset, CheckValidates) {
  Dataset ds = tiny_feature_dataset();
  EXPECT_NO_THROW(ds.check());
  ds.labels[0] = 5;
  EXPECT_THROW(ds.check(), Error);
  ds.labels[0] = 0;
  ds.labels.pop_back();
  EXPECT_THROW(ds.check(), Error);
}

TEST(Dataset, GatherPreservesRowsAndLabels) {
  Dataset ds = tiny_feature_dataset();
  const auto b = ds.gather({2, 5});
  EXPECT_EQ(b.x.shape(), (Shape{2, 2}));
  EXPECT_EQ(b.x(0, 0), 2.0F);
  EXPECT_EQ(b.x(1, 1), 5.0F);
  EXPECT_EQ(b.labels[0], 0);
  EXPECT_EQ(b.labels[1], 1);
  EXPECT_THROW(ds.gather({6}), Error);
  EXPECT_THROW(ds.gather({}), Error);
}

TEST(Dataset, SubsetAndHistogram) {
  Dataset ds = tiny_feature_dataset();
  const Dataset sub = ds.subset({0, 2, 4});
  EXPECT_EQ(sub.size(), 3);
  const auto hist = label_histogram(sub);
  EXPECT_EQ(hist[0], 3);
  EXPECT_EQ(hist[1], 0);
}

TEST(Dataset, TrainTestSplitPartitions) {
  Dataset ds = tiny_feature_dataset();
  Rng rng(1);
  const auto split = data::train_test_split(ds, 0.34, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  EXPECT_GE(split.test.size(), 1);
  EXPECT_THROW(data::train_test_split(ds, 0.0, rng), Error);
  EXPECT_THROW(data::train_test_split(ds, 1.0, rng), Error);
}

TEST(BatchIterator, CoversEveryIndexOnce) {
  Rng rng(2);
  data::BatchIterator it(10, 3, rng);
  std::multiset<std::size_t> seen;
  std::size_t batches = 0;
  while (!it.done()) {
    const auto b = it.next();
    EXPECT_LE(b.size(), 3U);
    seen.insert(b.begin(), b.end());
    ++batches;
  }
  EXPECT_EQ(batches, 4U);  // 3+3+3+1
  EXPECT_EQ(seen.size(), 10U);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(seen.count(i), 1U);
  EXPECT_TRUE(it.next().empty());
  it.reset(rng);
  EXPECT_FALSE(it.done());
}

// ------------------------------------------------------------ synthetic

TEST(SyntheticImages, ShapesAndRanges) {
  Rng rng(3);
  const auto ds = data::synthetic_mnist(100, rng);
  EXPECT_EQ(ds.x.shape(), (Shape{100, 1, 28, 28}));
  EXPECT_EQ(ds.num_classes, 10);
  EXPECT_GE(ds.x.min(), 0.0F);
  EXPECT_LE(ds.x.max(), 1.0F);
}

TEST(SyntheticImages, BalancedLabels) {
  Rng rng(4);
  const auto ds = data::synthetic_fashion(200, rng);
  const auto hist = label_histogram(ds);
  for (const auto h : hist) EXPECT_EQ(h, 20);
}

TEST(SyntheticImages, DeterministicInSeed) {
  Rng a(5), b(5), c(6);
  const auto d1 = data::synthetic_cifar(20, a);
  const auto d2 = data::synthetic_cifar(20, b);
  const auto d3 = data::synthetic_cifar(20, c);
  EXPECT_EQ(d1.x.vec(), d2.x.vec());
  EXPECT_NE(d1.x.vec(), d3.x.vec());
}

TEST(SyntheticImages, CifarIsRgb) {
  Rng rng(7);
  const auto ds = data::synthetic_cifar(10, rng);
  EXPECT_EQ(ds.x.shape(), (Shape{10, 3, 32, 32}));
}

TEST(SyntheticImages, SameClassMoreSimilarThanCrossClass) {
  // Class structure: intra-class distance should be below inter-class
  // distance on average.
  Rng rng(8);
  data::ImageSpec spec;
  spec.n = 60;
  spec.classes = 3;
  spec.noise = 0.05;
  const auto ds = data::make_synthetic_images(spec, rng);
  auto dist = [&](std::int64_t i, std::int64_t j) {
    double s = 0.0;
    const std::int64_t per = ds.example_numel();
    for (std::int64_t k = 0; k < per; ++k) {
      const double d = ds.x.at(i * per + k) - ds.x.at(j * per + k);
      s += d * d;
    }
    return s;
  };
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (std::int64_t i = 0; i < 30; ++i) {
    for (std::int64_t j = i + 1; j < 30; ++j) {
      if (ds.labels[i] == ds.labels[j]) {
        intra += dist(i, j);
        ++n_intra;
      } else {
        inter += dist(i, j);
        ++n_inter;
      }
    }
  }
  EXPECT_LT(intra / n_intra, inter / n_inter);
}

TEST(SyntheticImages, RejectsBadSpec) {
  Rng rng(9);
  data::ImageSpec spec;
  spec.n = 5;
  spec.classes = 10;  // n < classes
  EXPECT_THROW(data::make_synthetic_images(spec, rng), Error);
}

TEST(IsoletLike, ShapeAndClasses) {
  Rng rng(10);
  data::IsoletSpec spec;
  spec.n = 260;
  const auto ds = data::make_isolet_like(spec, rng);
  EXPECT_EQ(ds.x.shape(), (Shape{260, 617}));
  EXPECT_EQ(ds.num_classes, 26);
  const auto hist = label_histogram(ds);
  for (const auto h : hist) EXPECT_EQ(h, 10);
}

TEST(IsoletLike, SeparationKnobWorks) {
  // Higher separation => higher nearest-class-mean accuracy.
  auto ncm_accuracy = [](double sep, std::uint64_t seed) {
    Rng rng(seed);
    data::IsoletSpec spec;
    spec.n = 520;
    spec.separation = sep;
    const auto ds = data::make_isolet_like(spec, rng);
    // Split halves: fit means on first half, evaluate on second.
    std::vector<std::vector<double>> means(
        26, std::vector<double>(617, 0.0));
    std::vector<int> counts(26, 0);
    for (std::int64_t i = 0; i < 260; ++i) {
      const auto y = ds.labels[static_cast<std::size_t>(i)];
      for (std::int64_t d = 0; d < 617; ++d) {
        means[static_cast<std::size_t>(y)][static_cast<std::size_t>(d)] +=
            ds.x(i, d);
      }
      ++counts[static_cast<std::size_t>(y)];
    }
    for (std::size_t k = 0; k < 26; ++k) {
      for (auto& v : means[k]) v /= counts[k];
    }
    int correct = 0;
    for (std::int64_t i = 260; i < 520; ++i) {
      double best = 1e300;
      std::size_t arg = 0;
      for (std::size_t k = 0; k < 26; ++k) {
        double d2 = 0.0;
        for (std::int64_t d = 0; d < 617; ++d) {
          const double diff = ds.x(i, d) - means[k][static_cast<std::size_t>(d)];
          d2 += diff * diff;
        }
        if (d2 < best) {
          best = d2;
          arg = k;
        }
      }
      correct += (static_cast<std::int64_t>(arg) ==
                  ds.labels[static_cast<std::size_t>(i)]);
    }
    return correct / 260.0;
  };
  EXPECT_GT(ncm_accuracy(2.0, 11), ncm_accuracy(0.2, 11));
  EXPECT_GT(ncm_accuracy(2.0, 11), 0.8);
}

// ------------------------------------------------------------ partitioning

TEST(Partition, IidCoversAllDisjoint) {
  Rng rng(12);
  const auto ds = data::synthetic_mnist(103, rng);
  const auto parts = data::partition_iid(ds, 10, rng);
  ASSERT_EQ(parts.size(), 10U);
  std::set<std::size_t> seen;
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), 10U);
    for (const auto i : p) {
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 103U);
}

TEST(Partition, IidNearlyUniformLabels) {
  Rng rng(13);
  const auto ds = data::synthetic_mnist(1000, rng);
  const auto parts = data::partition_iid(ds, 5, rng);
  EXPECT_LT(data::label_skew(ds, parts), 0.2);  // 1/10 ideal
}

TEST(Partition, DirichletSkewOrdering) {
  Rng rng(14);
  const auto ds = data::synthetic_mnist(1000, rng);
  Rng r1 = rng.fork("a"), r2 = rng.fork("b");
  const auto skewed = data::partition_dirichlet(ds, 10, 0.1, r1);
  const auto mild = data::partition_dirichlet(ds, 10, 100.0, r2);
  EXPECT_GT(data::label_skew(ds, skewed), data::label_skew(ds, mild));
  // All clients non-empty; indices disjoint and complete.
  std::set<std::size_t> seen;
  for (const auto& p : skewed) {
    EXPECT_FALSE(p.empty());
    for (const auto i : p) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), 1000U);
}

TEST(Partition, ShardsLimitLabelsPerClient) {
  Rng rng(15);
  const auto ds = data::synthetic_mnist(1000, rng);
  const auto parts = data::partition_shards(ds, 10, 2, rng);
  ASSERT_EQ(parts.size(), 10U);
  for (const auto& p : parts) {
    std::set<std::int64_t> labels;
    for (const auto i : p) labels.insert(ds.labels[i]);
    EXPECT_LE(labels.size(), 3U);  // 2 shards -> at most ~2-3 labels
  }
  EXPECT_GT(data::label_skew(ds, parts), 0.4);
}

TEST(Partition, ErrorsOnBadArgs) {
  Rng rng(16);
  const auto ds = data::synthetic_mnist(20, rng);
  EXPECT_THROW(data::partition_iid(ds, 0, rng), Error);
  EXPECT_THROW(data::partition_iid(ds, 21, rng), Error);
  EXPECT_THROW(data::partition_dirichlet(ds, 5, 0.0, rng), Error);
  EXPECT_THROW(data::partition_shards(ds, 10, 3, rng), Error);
}

}  // namespace
}  // namespace fhdnn
