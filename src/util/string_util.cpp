#include "src/util/string_util.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "src/util/error.hpp"

namespace tbmd {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t j = i;
    while (j < s.size() && !is_space(s[j])) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

double parse_double(std::string_view token, std::string_view context) {
  // std::from_chars for double is available in libstdc++ 11+.
  double value = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw Error("failed to parse '" + std::string(token) + "' as a real number (" +
                std::string(context) + ")");
  }
  return value;
}

namespace {
template <typename Int>
Int parse_integer(std::string_view token, std::string_view context) {
  Int value = 0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    throw Error("integer '" + std::string(token) + "' is out of range (" +
                std::string(context) + ")");
  }
  if (ec != std::errc{} || ptr != end) {
    throw Error("failed to parse '" + std::string(token) + "' as an integer (" +
                std::string(context) + ")");
  }
  return value;
}
}  // namespace

long parse_long(std::string_view token, std::string_view context) {
  return parse_integer<long>(token, context);
}

int parse_int(std::string_view token, std::string_view context) {
  return parse_integer<int>(token, context);
}

}  // namespace tbmd
