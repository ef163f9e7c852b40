#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace vsstat::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "Table requires at least one column");
}

void Table::addRow(std::vector<std::string> row) {
  require(row.size() == headers_.size(),
          "Table row arity mismatch: expected " +
              std::to_string(headers_.size()) + ", got " +
              std::to_string(row.size()));
  rows_.push_back(std::move(row));
}

void Table::addSeparator() { rows_.emplace_back(); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }

  const auto printLine = [&](const std::vector<std::string>& cells) {
    os << "| ";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << cell << std::string(widths[c] - cell.size(), ' ');
      os << (c + 1 == headers_.size() ? " |" : " | ");
    }
    os << '\n';
  };
  const auto printRule = [&] {
    os << "+-";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << std::string(widths[c], '-');
      os << (c + 1 == headers_.size() ? "-+" : "-+-");
    }
    os << '\n';
  };

  printRule();
  printLine(headers_);
  printRule();
  for (const auto& row : rows_) {
    if (row.empty()) {
      printRule();
    } else {
      printLine(row);
    }
  }
  printRule();
}

std::string formatValue(double v, int precision) {
  std::ostringstream ss;
  ss.setf(std::ios::fixed);
  ss.precision(precision);
  ss << v;
  std::string s = ss.str();
  // Negative values that round to zero (and -0.0 itself) drop the sign.
  if (s.front() == '-' && s.find_first_not_of("-0.") == std::string::npos)
    s.erase(0, 1);
  return s;
}

std::string formatSci(double v, int precision) {
  std::ostringstream ss;
  ss.setf(std::ios::scientific);
  ss.precision(precision);
  ss << v;
  return ss.str();
}

}  // namespace vsstat::util
