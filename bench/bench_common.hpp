// Shared scaffolding for the experiment-harness benches.
//
// Every bench prints: a banner, the configuration (including the seed), a
// human-readable table, and a machine-readable CSV block, so captured
// stdout is enough to re-plot the figure.
#pragma once

#include <iostream>
#include <string>

#include "fl/history.hpp"
// Umbrella re-exports: every bench parses flags and prints tables, so
// bench_common deliberately forwards cli/table even though it does not
// use them itself.
// fhdnn-lint: allow(include-graph-hygiene)
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
// fhdnn-lint: allow(include-graph-hygiene)
#include "util/table.hpp"

namespace fhdnn::bench {

inline void init() { set_log_level(LogLevel::Warn); }

/// Print the standard per-round series of a training history as CSV.
inline void print_history_csv(std::ostream& os, const std::string& label,
                              const fl::TrainingHistory& hist) {
  CsvWriter csv(os, {"series", "round", "accuracy", "bytes_uplink"});
  for (const auto& m : hist.rounds()) {
    csv.add(label)
        .add(m.round)
        .add(m.test_accuracy)
        .add(static_cast<std::size_t>(m.bytes_uplink))
        .end_row();
  }
}

inline void print_config_line(const std::string& line) {
  std::cout << "config: " << line << "\n";
}

}  // namespace fhdnn::bench
