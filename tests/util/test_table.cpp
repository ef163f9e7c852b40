#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace vsstat::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.addRow({"Idsat", "33.1"});
  t.addRow({"Ioff", "0.13"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("Idsat"), std::string::npos);
  EXPECT_NE(s.find("0.13"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
  EXPECT_EQ(t.columnCount(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), InvalidArgumentError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), InvalidArgumentError);
}

TEST(Table, SeparatorRendersRule) {
  Table t({"x"});
  t.addRow({"1"});
  t.addSeparator();
  t.addRow({"2"});
  std::ostringstream os;
  t.print(os);
  // header rule + separator + top/bottom: at least 4 rule lines
  int rules = 0;
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_GE(rules, 4);
}

TEST(TableFormat, FixedPrecision) {
  EXPECT_EQ(formatValue(3.14159, 2), "3.14");
  EXPECT_EQ(formatValue(-1.0, 1), "-1.0");
}

TEST(TableFormat, ValuesThatRoundToZeroPrintWithoutSign) {
  EXPECT_EQ(formatValue(-0.04, 1), "0.0");
  EXPECT_EQ(formatValue(-0.0, 2), "0.00");
  EXPECT_EQ(formatValue(-0.06, 1), "-0.1");
}

TEST(TableFormat, Scientific) {
  EXPECT_EQ(formatSci(12345.0, 2), "1.23e+04");
}

}  // namespace
}  // namespace vsstat::util
