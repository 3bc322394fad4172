#include "measure.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values, std::size_t min_beyond) {
  Tail t;
  t.count = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = n > min_beyond ? n - min_beyond : (n + 1) / 2;
  t.value = values[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  return t;
}

double idle_share(double busy, int threads, double wall) {
  if (wall <= 0.0 || threads <= 0) return 0.0;
  const double share = 1.0 - busy / (static_cast<double>(threads) * wall);
  return std::clamp(share, 0.0, 1.0);
}

std::int64_t covered(std::vector<Interval> children, Interval parent) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t total = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

}  // namespace perfbench
