// The text-table rendering (stats::DataTable::to_text, stats::fmt) —
// formatting contract used by every bench's console output and by
// `dynreg_exp list`.
#include <gtest/gtest.h>

#include "stats/data_table.h"

namespace dynreg::stats {
namespace {

TEST(Table, FmtFixedPrecision) {
  EXPECT_EQ(fmt(1.0 / 3.0, 4), "0.3333");
  EXPECT_EQ(fmt(2.5, 0), "2");    // rounds to even
  EXPECT_EQ(fmt(3.5, 0), "4");
  EXPECT_EQ(fmt(12.0, 2), "12.00");
  EXPECT_EQ(fmt(0.0, 1), "0.0");
}

TEST(Table, ColumnsPadToWidestCell) {
  DataTable t({"a", "long header"});
  t.add_row({Cell::str("wide cell value"), Cell::str("x")});
  t.add_row({Cell::str("y"), Cell::str("z")});
  const std::string out = t.to_text();

  // header line: "a" padded to the widest cell in its column + 2 spaces.
  EXPECT_EQ(out.substr(0, out.find('\n')), "a                long header");
  // every row line has the second column starting at the same offset.
  EXPECT_NE(out.find("wide cell value  x"), std::string::npos);
  EXPECT_NE(out.find("y                z"), std::string::npos);
}

TEST(Table, RuleSpansAllColumns) {
  DataTable t({"ab", "cd"});
  t.add_row({Cell::str("1"), Cell::str("2")});
  const std::string out = t.to_text();
  const auto first_nl = out.find('\n');
  const auto second_nl = out.find('\n', first_nl + 1);
  const std::string rule = out.substr(first_nl + 1, second_nl - first_nl - 1);
  EXPECT_EQ(rule, std::string(6, '-'));  // 2 + 2 gutter + 2
  EXPECT_EQ(t.rows().size(), 1u);
}

TEST(Table, ShortRowsArePaddedToHeaderWidth) {
  DataTable t({"a", "b", "c"});
  t.add_row({Cell::str("only")});
  ASSERT_EQ(t.rows().size(), 1u);
  EXPECT_EQ(t.rows()[0].size(), 3u);
  EXPECT_NE(t.to_text().find("only"), std::string::npos);
}

}  // namespace
}  // namespace dynreg::stats
