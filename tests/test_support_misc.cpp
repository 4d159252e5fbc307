// Tests for the smaller support utilities: statistics, RNG, CLI parsing,
// table rendering and ASCII charts.
#include <gtest/gtest.h>

#include <cmath>

#include "support/ascii_chart.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace tq {
namespace {

// ---- stats -----------------------------------------------------------------

TEST(RunningStat, BasicMoments) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.add(x);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat stat;
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.min(), 0.0);
  EXPECT_EQ(stat.max(), 0.0);
  EXPECT_EQ(stat.stddev(), 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> samples{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

// ---- rng ---------------------------------------------------------------------

TEST(SplitMix64, DeterministicAndSeedSensitive) {
  SplitMix64 a(1), b(1), c(2);
  EXPECT_EQ(a.next(), b.next());
  SplitMix64 a2(1);
  EXPECT_NE(a2.next(), c.next());
}

TEST(SplitMix64, UnitRangeBounds) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---- cli ---------------------------------------------------------------------

TEST(CliParser, ParsesAllTypes) {
  CliParser cli("test");
  cli.add_flag("verbose", false, "chatty output");
  cli.add_int("slice", 5000, "slice interval");
  cli.add_string("mode", "both", "stack mode");
  cli.add_double("scale", 1.0, "scaling");
  const char* argv[] = {"prog", "-verbose", "-slice", "123", "--mode=excl",
                        "-scale", "2.5", "positional"};
  cli.parse(8, argv);
  EXPECT_TRUE(cli.flag("verbose"));
  EXPECT_EQ(cli.integer("slice"), 123);
  EXPECT_EQ(cli.str("mode"), "excl");
  EXPECT_DOUBLE_EQ(cli.real("scale"), 2.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(CliParser, DefaultsWhenAbsent) {
  CliParser cli("test");
  cli.add_int("slice", 5000, "slice interval");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.integer("slice"), 5000);
}

TEST(CliParser, UnknownOptionThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "-nope"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(CliParser, BadIntegerThrows) {
  CliParser cli("test");
  cli.add_int("n", 0, "number");
  const char* argv[] = {"prog", "-n", "12x"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(CliParser, MissingValueThrows) {
  CliParser cli("test");
  cli.add_int("n", 0, "number");
  const char* argv[] = {"prog", "-n"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(CliParser, HelpListsOptions) {
  CliParser cli("demo tool");
  cli.add_flag("x", true, "the x flag");
  cli.add_string("name", "abc", "a name");
  const std::string help = cli.help();
  EXPECT_NE(help.find("demo tool"), std::string::npos);
  EXPECT_NE(help.find("-x"), std::string::npos);
  EXPECT_NE(help.find("the x flag"), std::string::npos);
  EXPECT_NE(help.find("'abc'"), std::string::npos);
}

// ---- table ---------------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable table({"kernel", "bytes"});
  table.add_row({"fft1d", "123"});
  table.add_row({"wav_store", "7"});
  const std::string ascii = table.to_ascii();
  // Header and rows line up: every line has the same position for column 2.
  EXPECT_NE(ascii.find("kernel"), std::string::npos);
  EXPECT_NE(ascii.find("wav_store"), std::string::npos);
  // Right-aligned number column: "  7" with padding.
  EXPECT_NE(ascii.find("    7"), std::string::npos);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable table({"name", "note"});
  table.add_row({"a,b", "say \"hi\""});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, RowWidthMismatchAborts) {
  TextTable table({"a", "b"});
  EXPECT_DEATH(table.add_row({"only one"}), "row width mismatch");
}

TEST(Format, Helpers) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(12), "12");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_percent(0.3169), "31.69");
}

// ---- ascii chart -----------------------------------------------------------------

TEST(AsciiChart, HeatStripsCoverAllSeries) {
  std::vector<ChartSeries> series{
      {"fft1d", {0, 0, 5, 9, 5, 0}},
      {"wav_store", {0, 0, 0, 0, 8, 8}},
  };
  ChartOptions options;
  options.width = 12;
  const std::string chart = render_heat_strips(series, options);
  EXPECT_NE(chart.find("fft1d"), std::string::npos);
  EXPECT_NE(chart.find("wav_store"), std::string::npos);
  // Active region renders non-space glyphs, silent region spaces.
  const auto first_line_end = chart.find('\n');
  const std::string first_line = chart.substr(0, first_line_end);
  EXPECT_NE(first_line.find_first_of(".:-=+*#%@"), std::string::npos);
}

TEST(AsciiChart, EmptySeriesRendersBlank) {
  std::vector<ChartSeries> series{{"silent", {0, 0, 0}}};
  ChartOptions options;
  options.show_scale = false;  // keep only the strip row
  const std::string chart = render_heat_strips(series, options);
  EXPECT_NE(chart.find("silent"), std::string::npos);
  // The strip between the pipes contains only spaces.
  const auto open = chart.find('|');
  const auto close = chart.find('|', open + 1);
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  const std::string strip = chart.substr(open + 1, close - open - 1);
  EXPECT_EQ(strip.find_first_not_of(' '), std::string::npos);
}

TEST(AsciiChart, BlockChartHeight) {
  ChartSeries series{"k", {1, 2, 3, 4, 5, 6, 7, 8}};
  ChartOptions options;
  options.width = 8;
  const std::string chart = render_block_chart(series, 4, options);
  // 1 title + 4 rows + 1 axis.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 6);
}

}  // namespace
}  // namespace tq
