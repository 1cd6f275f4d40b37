// Tests for the shared utilities: RNG determinism and distributions,
// string helpers, flags, CSV I/O, and Status.

#include "util/rng.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace armnet {
namespace {

TEST(RngTest, DeterministicStreams) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_different = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) any_different |= a2.Next() != c.Next();
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformBoundsAndMoments) {
  Rng rng(7);
  double total = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    total += u;
  }
  EXPECT_NEAR(total / 20000, 0.5, 0.01);
}

TEST(RngTest, UniformIntUnbiasedOverSmallRange) {
  Rng rng(8);
  int counts[5] = {0};
  for (int i = 0; i < 50000; ++i) counts[rng.UniformInt(5)]++;
  for (int v = 0; v < 5; ++v) {
    EXPECT_NEAR(counts[v] / 50000.0, 0.2, 0.01);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double mean = 0, var = 0;
  const int n = 50000;
  std::vector<double> samples(n);
  for (int i = 0; i < n; ++i) {
    samples[static_cast<size_t>(i)] = rng.Gaussian(2.0, 3.0);
    mean += samples[static_cast<size_t>(i)];
  }
  mean /= n;
  for (double s : samples) var += (s - mean) * (s - mean);
  var /= n;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, ZipfIsSkewedAndInRange) {
  Rng rng(10);
  Rng::ZipfTable table(100, 1.1);
  int counts[100] = {0};
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = table.Sample(rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    counts[v]++;
  }
  EXPECT_GT(counts[0], counts[50] * 5);

  // Exponent 0 means uniform.
  Rng::ZipfTable uniform(10, 0.0);
  int ucounts[10] = {0};
  for (int i = 0; i < 20000; ++i) ucounts[uniform.Sample(rng)]++;
  EXPECT_NEAR(ucounts[0] / 20000.0, 0.1, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v;
  for (int i = 0; i < 50; ++i) v.push_back(i);
  rng.Shuffle(v);
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 50u);
}

TEST(RngTest, ForkGivesIndependentStream) {
  Rng parent(12);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(StringTest, SplitTrimJoinStartsWith) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_TRUE(StartsWith("--flag=1", "--flag="));
  EXPECT_FALSE(StartsWith("-f", "--flag="));
  EXPECT_EQ(StrFormat("%d/%0.2f/%s", 3, 1.5, "ok"), "3/1.50/ok");
}

TEST(StringTest, FlagParsing) {
  const char* argv_raw[] = {"prog", "--tuples=500", "--scale=0.25",
                            "--name=frappe"};
  char** argv = const_cast<char**>(argv_raw);
  EXPECT_EQ(FlagInt(4, argv, "tuples", 7), 500);
  EXPECT_EQ(FlagInt(4, argv, "missing", 7), 7);
  EXPECT_DOUBLE_EQ(FlagDouble(4, argv, "scale", 1.0), 0.25);
  EXPECT_EQ(FlagValue(4, argv, "name", "x"), "frappe");
}

TEST(CsvTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/t.csv";
  ASSERT_TRUE(WriteLines(path, {"a,b", "1,2", "3,4"}).ok());
  StatusOr<CsvTable> table = ReadCsv(path);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table.value().rows.size(), 2u);
  EXPECT_EQ(table.value().rows[1][1], "4");
  EXPECT_EQ(CsvRow({"x", "y"}), "x,y");
}

TEST(CsvTest, MissingFileIsError) {
  EXPECT_FALSE(ReadCsv("/no/such/file.csv").ok());
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");

  StatusOr<int> value(42);
  EXPECT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  StatusOr<int> failed(Status::Error("nope"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "nope");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  EXPECT_GE(watch.ElapsedMillis(), watch.ElapsedSeconds());
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace armnet
