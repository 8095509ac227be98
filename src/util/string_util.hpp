#pragma once

/// \file string_util.hpp
/// \brief Small string helpers shared by the I/O and config layers.

#include <string>
#include <string_view>
#include <vector>

namespace tbmd {

/// Strip leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on any run of whitespace; empty tokens are never produced.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view s);

/// Case-insensitive ASCII string equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

/// Lower-case an ASCII string.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Parse a double, throwing tbmd::Error with context on failure.
[[nodiscard]] double parse_double(std::string_view token,
                                  std::string_view context);

/// Parse a long integer, throwing tbmd::Error with context on failure.
[[nodiscard]] long parse_long(std::string_view token,
                              std::string_view context);

/// Parse an integer that must fit in `int`, throwing tbmd::Error with
/// context on failure.  Every int-valued key and flag reads through this,
/// so an out-of-range value is rejected instead of wrapping modulo 2^32.
[[nodiscard]] int parse_int(std::string_view token, std::string_view context);

}  // namespace tbmd
