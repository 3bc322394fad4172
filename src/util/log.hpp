// Minimal leveled logger, safe to call from any thread.
//
// Experiments and the FL simulator use this to emit progress; tests set the
// level to Warn to keep ctest output clean.  The fhdnnd server logs from the
// reactor thread and per-worker client threads concurrently, so the sink
// guarantees: the level filter is an atomic load, and every log line is
// emitted as a single write under one lock — concurrent lines interleave
// whole, never character by character.
//
// Per-connection / per-source prefixes: construct the line with a source
// label (`log_info("conn-3") << ...`) and the sink renders
// `[INFO ] [conn-3] ...` so interleaved server logs stay attributable.
#pragma once

#include <sstream>
#include <string>

namespace fhdnn {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global minimum level; messages below it are dropped.  Atomic: may be
/// flipped while other threads are logging.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emit one log line (appends '\n') to stderr if `level` passes the filter.
/// The line is written with a single locked write so concurrent callers
/// never interleave within a line.
void log_message(LogLevel level, const std::string& msg);

/// log_message with a source prefix (connection id, subsystem, binary name).
void log_message(LogLevel level, const std::string& source,
                 const std::string& msg);

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(LogLevel level, std::string source)
      : level_(level), source_(std::move(source)) {}
  ~LogLine() {
    if (source_.empty()) {
      log_message(level_, os_.str());
    } else {
      log_message(level_, source_, os_.str());
    }
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string source_;
  std::ostringstream os_;
};

}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::Debug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::Info); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::Warn); }

inline detail::LogLine log_debug(std::string source) {
  return {LogLevel::Debug, std::move(source)};
}
inline detail::LogLine log_info(std::string source) {
  return {LogLevel::Info, std::move(source)};
}
inline detail::LogLine log_warn(std::string source) {
  return {LogLevel::Warn, std::move(source)};
}

}  // namespace fhdnn
