#include "src/io/logger.hpp"

#include <atomic>

namespace tbmd::io {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void log_message(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  std::cerr << '[' << level_name(level) << "] " << message << '\n';
}

}  // namespace tbmd::io
