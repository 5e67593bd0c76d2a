// Leveled logging to stderr with a global threshold. The optimizers log
// per-iteration progress at Debug; experiment harnesses log at Info.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace maopt {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_log_level(LogLevel level);
LogLevel log_level();
void log_message(LogLevel level, const std::string& msg);

namespace detail {
/// One log statement. Formatting is lazy: below the global threshold the
/// stream is never materialized and every operator<< is a no-op, so hot-path
/// log_debug() calls cost a level check instead of ostringstream traffic.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {
    if (level >= log_level()) stream_.emplace();
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  LogLine(LogLine&&) = delete;
  LogLine& operator=(LogLine&&) = delete;
  ~LogLine() {
    if (stream_.has_value()) log_message(level_, stream_->str());
  }
  template <typename T>
  LogLine& operator<<(const T& v) {
    if (stream_.has_value()) *stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> stream_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::Debug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::Info); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::Warn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::Error); }

/// RAII wall-clock stopwatch (seconds).
class Stopwatch {
 public:
  Stopwatch();
  double elapsed_seconds() const;
  void reset();

 private:
  long long start_ns_;
};

}  // namespace maopt
