// Console table printer used by the benchmark harness to emit paper-style
// tables (Table II, III, IV, ...) with aligned columns.
#ifndef VSSTAT_UTIL_TABLE_HPP
#define VSSTAT_UTIL_TABLE_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace vsstat::util {

/// A simple left/right aligned text table.  Rows are added as strings (use
/// formatValue/formatSci below to render numbers consistently).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a data row; must have the same arity as the header row.
  void addRow(std::vector<std::string> row);

  /// Appends a horizontal separator line.
  void addSeparator();

  /// Renders the table with column alignment and a header underline.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t columnCount() const noexcept { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // empty row == separator
};

/// Fixed-precision decimal rendering ("0.01234").  A value that rounds to
/// zero at `precision` prints without a sign ("0.0", never "-0.0").
[[nodiscard]] std::string formatValue(double v, int precision = 4);

/// Scientific rendering ("1.234e-05").
[[nodiscard]] std::string formatSci(double v, int precision = 3);

}  // namespace vsstat::util

#endif  // VSSTAT_UTIL_TABLE_HPP
