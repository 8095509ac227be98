#pragma once

/// \file logger.hpp
/// \brief Minimal leveled logger for the examples and benchmark harness.

#include <iostream>
#include <sstream>
#include <string>

namespace tbmd::io {

enum class LogLevel { kInfo, kWarn, kError };

/// Process-wide log threshold (messages below it are dropped).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emit one log line ("[level] message") to stderr.
void log_message(LogLevel level, const std::string& message);

namespace detail {
inline void append(std::ostringstream&) {}
template <typename T, typename... Rest>
void append(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  append(os, rest...);
}
}  // namespace detail

/// Variadic convenience: log_info("n = ", n, " atoms").
template <typename... Args>
void log_info(const Args&... args) {
  std::ostringstream os;
  detail::append(os, args...);
  log_message(LogLevel::kInfo, os.str());
}

template <typename... Args>
void log_warn(const Args&... args) {
  std::ostringstream os;
  detail::append(os, args...);
  log_message(LogLevel::kWarn, os.str());
}

}  // namespace tbmd::io
