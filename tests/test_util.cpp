// util/: RNG distribution sanity, table printer, CLI parser.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace bcdyn::util {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(8);
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 10 && !differs; ++i) differs = a2.next() != c.next();
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(3);
  std::vector<int> buckets(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const auto x = rng.next_below(10);
    ASSERT_LT(x, 10u);
    ++buckets[static_cast<std::size_t>(x)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, draws / 10, draws / 100);  // within 10% relative
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.next_in(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.shuffle(std::span(v));
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  bool differs = false;
  for (int i = 0; i < 10 && !differs; ++i) differs = a.next() != b.next();
  EXPECT_TRUE(differs);
}

TEST(Table, AlignedAndCsvOutput) {
  Table t({"Graph", "Time"});
  t.add_row({"caida", Table::fmt(1.5, 2)});
  t.add_row({"a,b", Table::fmt_speedup(20.638)});
  EXPECT_EQ(t.num_rows(), 2u);

  std::ostringstream pretty;
  t.print(pretty);
  EXPECT_NE(pretty.str().find("caida"), std::string::npos);
  EXPECT_NE(pretty.str().find("1.50"), std::string::npos);
  EXPECT_NE(pretty.str().find("20.64x"), std::string::npos);

  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"a,b\""), std::string::npos);
}

TEST(Cli, ParsesKeysFlagsAndLists) {
  const char* argv[] = {"prog", "--scale=0.5", "--verify", "--blocks=1,2,4",
                        "--name=test"};
  Cli cli(5, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(cli.get_bool("verify", false));
  EXPECT_EQ(cli.get("name", ""), "test");
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  const auto blocks = cli.get_int_list("blocks", {});
  EXPECT_EQ(blocks, (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_TRUE(cli.unused_keys().empty());
}

TEST(Cli, RejectsMalformedAndTracksUnused) {
  const char* bad[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, bad), std::invalid_argument);

  const char* ok[] = {"prog", "--used=1", "--typo=2"};
  Cli cli(3, ok);
  cli.get_int("used", 0);
  const auto unused = cli.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, ValuesThatDoNotParseCompletelyExitNamingTheFlag) {
  const char* argv[] = {"prog",
                        "--lanes=abc",
                        "--scale=0.5x",
                        "--blocks=1,,4",
                        "--seed=99999999999999999999",
                        "--sources=4294967297"};
  Cli cli(6, argv);
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(cli.get_int("lanes", 1), exits_2, "--lanes wants an integer");
  EXPECT_EXIT(cli.get_double("scale", 1.0), exits_2, "--scale wants a number");
  EXPECT_EXIT(cli.get_int_list("blocks", {}), exits_2,
              "--blocks wants an integer, got ''");
  EXPECT_EXIT(cli.get_int("seed", 7), exits_2, "--seed wants an integer");
  // Parses as an int64 but would wrap to 1 as an int.
  EXPECT_EXIT(cli.get_count("sources", 32), exits_2,
              "--sources wants an int-sized count, got '4294967297'");
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  ASSERT_GT(sink, 0.0);
  EXPECT_GE(sw.elapsed_s(), 0.0);
  EXPECT_GE(sw.elapsed_ms(), 0.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_s(), 1.0);
}

}  // namespace
}  // namespace bcdyn::util
