#include "util/table.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/experiments.hpp"

namespace manywalks {
namespace {

TEST(FormatDouble, PlainRange) {
  EXPECT_EQ(format_double(1234.5), "1234");  // 4 significant digits
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(3.14159, 3), "3.14");
  EXPECT_EQ(format_double(0.0), "0");
}

TEST(FormatDouble, ScientificOutsideRange) {
  EXPECT_EQ(format_double(1e9, 3), "1.00e+09");
  EXPECT_EQ(format_double(1e-6, 3), "1.00e-06");
}

TEST(FormatDouble, SpecialValues) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(FormatCount, InsertsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(1000000000ULL), "1,000,000,000");
}

TEST(FormatMeanPm, CombinesBoth) {
  EXPECT_EQ(format_mean_pm(100.0, 5.0), "100 ± 5");
}

TEST(TableText, RendersHeaderAndRows) {
  ResultTable t("id", "My title");
  t.add_column("name", /*left=*/true).add_column("value");
  t.begin_row().text("alpha").count(42);
  t.begin_row().text("b").count(7);
  const std::string out = table_text(t);
  EXPECT_NE(out.find("My title"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.columns().size(), 2u);
}

TEST(TableText, GoldenLayout) {
  // Full bytes: widths count display columns ("±", "†" are one each),
  // left columns pad right, the others pad left, rules span the table.
  ResultTable t("id", "My title");
  t.add_column("name", /*left=*/true).add_column("count").add_column("est");
  t.begin_row().text("alpha").count(1234).mean_pm(12.5, 0.25);
  t.rule();
  t.begin_row().text("b").count(7).mean_pm(3.0, 1.0, 4, /*censored=*/1);
  EXPECT_EQ(table_text(t),
            "My title\n"
            "name  | count |         est\n"
            "---------------------------\n"
            "alpha | 1,234 | 12.5 ± 0.25\n"
            "---------------------------\n"
            "b     |     7 |      3 ± 1†\n");
}

TEST(TableText, RightAlignmentPadsLeft) {
  ResultTable t;
  t.add_column("v");  // right-aligned by default
  t.begin_row().count(1);
  t.begin_row().count(100);
  const std::string out = table_text(t);
  // The shorter value must be right-aligned under the longer one.
  EXPECT_NE(out.find("  1\n"), std::string::npos);
}

TEST(TableText, RuleInsertsSeparator) {
  ResultTable t;
  t.add_column("v");
  t.begin_row().text("a");
  t.rule();
  t.begin_row().text("b");
  const std::string out = table_text(t);
  // Header rule + mid rule = at least two dashed lines.
  std::size_t dashes = 0;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos)
      ++dashes;
  }
  EXPECT_GE(dashes, 2u);
}

TEST(TableText, ShortLastRowPadsBlank) {
  ResultTable t;
  t.add_column("a").add_column("b");
  t.begin_row().text("x");
  EXPECT_EQ(table_text(t), "a | b\n-----\nx |  \n");
}

TEST(TableText, TooManyCellsThrows) {
  ResultTable t;
  t.add_column("v");
  t.begin_row().text("x");
  EXPECT_THROW(t.text("y"), std::invalid_argument);
}

TEST(TableText, CellBeforeRowThrows) {
  ResultTable t;
  t.add_column("v");
  EXPECT_THROW(t.text("x"), std::invalid_argument);
}

TEST(TableText, ColumnsAfterRowsThrow) {
  ResultTable t;
  t.add_column("v");
  t.begin_row().text("x");
  EXPECT_THROW(t.add_column("w"), std::invalid_argument);
}

TEST(TableText, PreviousRowIncompleteThrows) {
  ResultTable t;
  t.add_column("a").add_column("b");
  t.begin_row().text("x");
  EXPECT_THROW(t.begin_row(), std::invalid_argument);
}

}  // namespace
}  // namespace manywalks
