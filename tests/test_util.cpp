// Tests for src/util: rng, stats, csv, table, cli, error macro.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fhdnn {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, ForkIsDeterministicAndLabelSensitive) {
  const Rng root(7);
  Rng f1 = root.fork("alpha");
  Rng f2 = root.fork("alpha");
  Rng f3 = root.fork("beta");
  EXPECT_EQ(f1.next_u64(), f2.next_u64());
  Rng f4 = root.fork("alpha");
  EXPECT_NE(f4.next_u64(), f3.next_u64());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(9), b(9);
  (void)a.fork("x");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanVariance) {
  Rng rng(4);
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
  EXPECT_NEAR(acc.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  stats::Accumulator acc;
  for (int i = 0; i < 40000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.03);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.03);
}

TEST(Rng, RandintBoundsInclusive) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.randint(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6U);  // all values hit
}

TEST(Rng, RandintSingleton) {
  Rng rng(6);
  EXPECT_EQ(rng.randint(5, 5), 5);
}

TEST(Rng, RandintRejectsBadRange) {
  Rng rng(6);
  EXPECT_THROW(rng.randint(2, 1), Error);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  EXPECT_THROW(rng.bernoulli(1.5), Error);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(10);
  const auto s = rng.sample_without_replacement(20, 7);
  EXPECT_EQ(s.size(), 7U);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 7U);
  for (const auto v : s) EXPECT_LT(v, 20U);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

TEST(Rng, SampleAll) {
  Rng rng(10);
  const auto s = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5U);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(11);
  for (const double alpha : {0.1, 1.0, 10.0}) {
    const auto p = rng.dirichlet(alpha, 8);
    EXPECT_EQ(p.size(), 8U);
    double sum = 0.0;
    for (const double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletConcentration) {
  // Small alpha concentrates mass: max component much larger on average.
  Rng rng(12);
  double max_small = 0.0, max_large = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto a = rng.dirichlet(0.1, 10);
    const auto b = rng.dirichlet(50.0, 10);
    max_small += *std::max_element(a.begin(), a.end());
    max_large += *std::max_element(b.begin(), b.end());
  }
  EXPECT_GT(max_small / trials, max_large / trials + 0.2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, FillHelpers) {
  Rng rng(15);
  std::vector<float> a(5000);
  rng.fill_uniform(a, -1.0F, 1.0F);
  for (const float v : a) {
    EXPECT_GE(v, -1.0F);
    EXPECT_LT(v, 1.0F);
  }
  std::vector<float> b(5000);
  rng.fill_normal(b, 2.0F, 0.5F);
  double mean = 0;
  for (const float v : b) mean += v;
  EXPECT_NEAR(mean / 5000.0, 2.0, 0.05);
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanVariance) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
  EXPECT_NEAR(stats::variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats::stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptyAndDegenerate) {
  const std::vector<double> empty;
  EXPECT_EQ(stats::mean(empty), 0.0);
  EXPECT_EQ(stats::variance(empty), 0.0);
  const std::vector<double> one{5.0};
  EXPECT_EQ(stats::variance(one), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 2.0};
  EXPECT_EQ(stats::min(xs), -1.0);
  EXPECT_EQ(stats::max(xs), 3.0);
  const std::vector<double> empty;
  EXPECT_THROW(stats::min(empty), Error);
}

TEST(Stats, Mse) {
  const std::vector<float> a{0.0F, 1.0F};
  const std::vector<float> b{0.0F, 0.0F};
  EXPECT_NEAR(stats::mse(a, b), 0.5, 1e-12);
}

TEST(Stats, AccumulatorMatchesBatch) {
  Rng rng(16);
  std::vector<double> xs;
  stats::Accumulator acc;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(3.0, 2.0);
    xs.push_back(v);
    acc.add(v);
  }
  EXPECT_NEAR(acc.mean(), stats::mean(xs), 1e-9);
  EXPECT_NEAR(acc.variance(), stats::variance(xs), 1e-9);
  EXPECT_EQ(acc.min(), stats::min(xs));
  EXPECT_EQ(acc.max(), stats::max(xs));
}

// ---------------------------------------------------------------- csv

TEST(Csv, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"a", "b"});
  w.add(1).add("x").end_row();
  w.add(2.5).add(std::string("he,llo")).end_row();
  EXPECT_EQ(os.str(), "a,b\n1,x\n2.5,\"he,llo\"\n");
}

TEST(Csv, EscapesQuotes) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(Csv, RowArityEnforced) {
  std::ostringstream os;
  CsvWriter w(os, {"a", "b"});
  w.add(1);
  EXPECT_THROW(w.end_row(), Error);
  w.add(2);
  EXPECT_NO_THROW(w.end_row());
  w.add(1).add(2);
  EXPECT_THROW(w.add(3), Error);
}

TEST(Csv, FormatDouble) {
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(std::nan("")), "nan");
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumns) {
  std::ostringstream os;
  TextTable t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, RejectsBadRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

// ---------------------------------------------------------------- cli

TEST(Cli, ParsesAllKinds) {
  CliFlags f;
  f.define_int("n", 1, "int");
  f.define_double("x", 0.5, "double");
  f.define_bool("flag", false, "bool");
  f.define_string("s", "d", "string");
  const char* argv[] = {"prog", "--n=5", "--x", "2.5", "--flag", "--s=hello"};
  ASSERT_TRUE(f.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("n"), 5);
  EXPECT_DOUBLE_EQ(f.get_double("x"), 2.5);
  EXPECT_TRUE(f.get_bool("flag"));
  EXPECT_EQ(f.get_string("s"), "hello");
}

TEST(Cli, DefaultsSurvive) {
  CliFlags f;
  f.define_int("n", 7, "int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("n"), 7);
}

TEST(Cli, RejectsUnknownAndBadValues) {
  CliFlags f;
  f.define_int("n", 1, "int");
  const char* bad1[] = {"prog", "--unknown=1"};
  EXPECT_THROW(f.parse(2, const_cast<char**>(bad1)), Error);
  const char* bad2[] = {"prog", "--n=abc"};
  EXPECT_THROW(f.parse(2, const_cast<char**>(bad2)), Error);
  const char* bad3[] = {"prog", "--n"};
  EXPECT_THROW(f.parse(2, const_cast<char**>(bad3)), Error);
}

TEST(Cli, HelpReturnsFalse) {
  CliFlags f;
  f.define_int("n", 1, "int");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(f.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, TypeMismatchThrows) {
  CliFlags f;
  f.define_int("n", 1, "int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, const_cast<char**>(argv)));
  EXPECT_THROW(f.get_double("n"), Error);
  EXPECT_THROW(f.get_int("missing"), Error);
}

// ---------------------------------------------------------------- error

TEST(ErrorMacro, ThrowsWithMessage) {
  try {
    FHDNN_CHECK(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorMacro, NoMessageForm) {
  EXPECT_THROW(FHDNN_CHECK(false), Error);
  EXPECT_NO_THROW(FHDNN_CHECK(true));
}

}  // namespace
}  // namespace fhdnn
