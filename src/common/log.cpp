#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "common/thread_annotations.hpp"

namespace maopt {
namespace {
std::atomic<LogLevel> g_level{LogLevel::Info};
Mutex g_mutex;  // serializes stderr lines; leaf lock (nothing acquired under it)

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    default: return "?";
  }
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void log_message(LogLevel level, const std::string& msg) {
  if (level < g_level.load()) return;
  const MutexLock lock(g_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}

Stopwatch::Stopwatch() { reset(); }

void Stopwatch::reset() {
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

double Stopwatch::elapsed_seconds() const {
  const long long now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
  return static_cast<double>(now - start_ns_) * 1e-9;
}

}  // namespace maopt
