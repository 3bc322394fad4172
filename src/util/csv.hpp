// CSV emission for experiment harnesses.
//
// Benches print results both as aligned human-readable tables (see
// util/table.hpp) and as machine-readable CSV blocks so figures can be
// re-plotted from captured stdout.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace fhdnn {

/// Streams rows of a CSV table to an ostream. Values are formatted with
/// enough precision to round-trip floats; strings containing commas or
/// quotes are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Writes the header row immediately.
  CsvWriter(std::ostream& os, std::vector<std::string> columns);

  /// Begin a new row; must be matched by exactly `columns.size()` add() calls
  /// followed by end_row().
  CsvWriter& add(const std::string& value);
  CsvWriter& add(double value);
  CsvWriter& add(std::int64_t value);
  CsvWriter& add(std::size_t value);
  CsvWriter& add(int value);
  void end_row();

 private:
  void put(const std::string& formatted);

  std::ostream& os_;
  std::size_t n_cols_;
  std::size_t col_ = 0;
};

/// Quote a CSV field if needed (RFC 4180).
std::string csv_escape(const std::string& s);

/// Format a double compactly but losslessly enough for plotting.
std::string format_double(double v);

}  // namespace fhdnn
