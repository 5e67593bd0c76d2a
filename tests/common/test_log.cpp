#include "common/log.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace maopt {
namespace {

TEST(Log, LevelThresholdRoundTrip) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Warn);
  EXPECT_EQ(log_level(), LogLevel::Warn);
  set_log_level(LogLevel::Off);
  EXPECT_EQ(log_level(), LogLevel::Off);
  // Emitting below threshold must be a no-op (no crash, nothing observable).
  log_debug() << "suppressed";
  log_error() << "also suppressed at Off";
  set_log_level(saved);
}

TEST(Log, StreamingAcceptsMixedTypes) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Off);
  log_info() << "x=" << 42 << " y=" << 1.5 << " z=" << std::string("s");
  set_log_level(saved);
}

// Streamed into a suppressed LogLine, formatting must never run: the lazy
// LogLine only materializes its stream above the threshold, so operator<<
// on the payload type is the observable side effect to count.
struct FormatProbe {
  int* formats;
  friend std::ostream& operator<<(std::ostream& os, const FormatProbe& p) {
    ++*p.formats;
    return os << "probe";
  }
};

TEST(Log, SuppressedLinesSkipFormattingEntirely) {
  int formats = 0;
  const FormatProbe probe{&formats};
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Warn);
  log_debug() << probe << probe;
  EXPECT_EQ(formats, 0);  // below threshold: no ostringstream, no formatting
  log_warn() << probe;
  EXPECT_EQ(formats, 1);  // at threshold: formatted exactly once
  set_log_level(saved);
}

TEST(Stopwatch, MeasuresElapsedWallTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double t = sw.elapsed_seconds();
  EXPECT_GE(t, 0.015);
  EXPECT_LT(t, 5.0);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 0.010);
}

}  // namespace
}  // namespace maopt
