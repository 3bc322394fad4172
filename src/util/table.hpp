// Aligned plain-text tables for bench/experiment stdout, mirroring the rows
// the paper's tables and figure series report.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace fhdnn {

/// Collects rows of strings and prints them with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> columns);

  /// Append a row; must have exactly as many cells as there are columns.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format mixed cells.
  static std::string cell(const std::string& s) { return s; }
  static std::string cell(double v);
  static std::string cell(int v) { return std::to_string(v); }
  static std::string cell(std::size_t v) { return std::to_string(v); }

  /// Render with a header underline and two-space gutters.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a section banner used by every bench binary:
///   ==== Fig. 8: packet loss ====
void print_banner(std::ostream& os, const std::string& title);

}  // namespace fhdnn
