#include "util/csv.hpp"

#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace fhdnn {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string format_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  // %.6g is compact; integers print without a decimal point.
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

CsvWriter::CsvWriter(std::ostream& os, std::vector<std::string> columns)
    : os_(os), n_cols_(columns.size()) {
  FHDNN_CHECK(n_cols_ > 0, "CSV needs at least one column");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) os_ << ',';
    os_ << csv_escape(columns[i]);
  }
  os_ << '\n';
}

void CsvWriter::put(const std::string& formatted) {
  FHDNN_CHECK(col_ < n_cols_, "too many values in CSV row");
  if (col_) os_ << ',';
  os_ << formatted;
  ++col_;
}

CsvWriter& CsvWriter::add(const std::string& value) {
  put(csv_escape(value));
  return *this;
}

CsvWriter& CsvWriter::add(double value) {
  put(format_double(value));
  return *this;
}

CsvWriter& CsvWriter::add(std::int64_t value) {
  put(std::to_string(value));
  return *this;
}

CsvWriter& CsvWriter::add(std::size_t value) {
  put(std::to_string(value));
  return *this;
}

CsvWriter& CsvWriter::add(int value) {
  put(std::to_string(value));
  return *this;
}

void CsvWriter::end_row() {
  FHDNN_CHECK(col_ == n_cols_, "CSV row has " << col_ << " of " << n_cols_
                                              << " values");
  os_ << '\n';
  col_ = 0;
}

}  // namespace fhdnn
