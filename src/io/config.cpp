#include "src/io/config.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "src/util/error.hpp"
#include "src/util/string_util.hpp"

namespace tbmd::io {

namespace {

/// Numeric config values must be finite: a literal "nan"/"inf" (which
/// parse_double happily accepts) would otherwise poison a simulation
/// silently -- every NaN comparison is false, so range checks downstream
/// cannot catch it.
double require_finite(double v, const std::string& raw,
                      const std::string& context) {
  if (!std::isfinite(v)) {
    throw Error(context + " must be finite, got '" + raw + "'");
  }
  return v;
}

}  // namespace

Config Config::parse_string(const std::string& text,
                            const std::string& source) {
  Config cfg;
  cfg.source_ = source;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string at = source + ":" + std::to_string(line_no);
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view stripped = trim(line);
    if (stripped.empty()) continue;
    const std::size_t eq = stripped.find('=');
    TBMD_REQUIRE(eq != std::string::npos, at + ": missing '='");
    const std::string key = to_lower(trim(stripped.substr(0, eq)));
    const std::string value{trim(stripped.substr(eq + 1))};
    TBMD_REQUIRE(!key.empty(), at + ": empty key");
    TBMD_REQUIRE(!cfg.values_.count(key),
                 at + ": duplicate key '" + key + "' (first defined on line " +
                     std::to_string(cfg.values_[key].line) + ")");
    cfg.values_[key] = Entry{value, line_no, false};
    cfg.order_.push_back(key);
  }
  return cfg;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream f(path);
  TBMD_REQUIRE(f.good(), "config: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return parse_string(buffer.str(), path);
}

const Config::Entry* Config::find(const std::string& key) const {
  const auto it = values_.find(to_lower(key));
  if (it == values_.end()) return nullptr;
  it->second.used = true;
  return &it->second;
}

const Config::Entry& Config::require(const std::string& key) const {
  const Entry* e = find(key);
  TBMD_REQUIRE(e != nullptr, source_ + ": required key '" + to_lower(key) +
                                 "' is missing");
  return *e;
}

std::string Config::context(const std::string& key, const Entry& entry) const {
  return source_ + ":" + std::to_string(entry.line) + ": key '" +
         to_lower(key) + "'";
}

bool Config::has(const std::string& key) const { return find(key) != nullptr; }

int Config::line(const std::string& key) const {
  const auto it = values_.find(to_lower(key));
  return it == values_.end() ? 0 : it->second.line;
}

std::string Config::where(const std::string& key) const {
  const int l = line(key);
  return l == 0 ? source_ : source_ + ":" + std::to_string(l);
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const Entry* e = find(key);
  return e == nullptr ? fallback : e->value;
}

std::string Config::require_string(const std::string& key) const {
  return require(key).value;
}

double Config::get_double(const std::string& key, double fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  return require_finite(parse_double(e->value, context(key, *e)), e->value,
                        context(key, *e));
}

double Config::require_double(const std::string& key) const {
  const Entry& e = require(key);
  return require_finite(parse_double(e.value, context(key, e)), e.value,
                        context(key, e));
}

long Config::get_long(const std::string& key, long fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  return parse_long(e->value, context(key, *e));
}

long Config::require_long(const std::string& key) const {
  const Entry& e = require(key);
  return parse_long(e.value, context(key, e));
}

namespace {

bool parse_bool(const std::string& raw, const std::string& context) {
  const std::string v = to_lower(raw);
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  throw Error(context + " is not a boolean: '" + raw + "'");
}

}  // namespace

bool Config::get_bool(const std::string& key, bool fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  return parse_bool(e->value, context(key, *e));
}

bool Config::require_bool(const std::string& key) const {
  const Entry& e = require(key);
  return parse_bool(e.value, context(key, e));
}

std::vector<long> Config::get_longs(const std::string& key,
                                    std::vector<long> fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  std::vector<long> out;
  for (const std::string& tok : split_whitespace(e->value)) {
    out.push_back(parse_long(tok, context(key, *e)));
  }
  return out;
}

std::vector<double> Config::get_doubles(const std::string& key,
                                        std::vector<double> fallback) const {
  const Entry* e = find(key);
  if (e == nullptr) return fallback;
  std::vector<double> out;
  for (const std::string& tok : split_whitespace(e->value)) {
    out.push_back(require_finite(parse_double(tok, context(key, *e)), tok,
                                 context(key, *e)));
  }
  return out;
}

std::vector<double> Config::require_doubles(const std::string& key,
                                            std::size_t count) const {
  const Entry& e = require(key);
  const std::vector<double> out = get_doubles(key, {});
  TBMD_REQUIRE(out.size() == count,
               context(key, e) + " needs " + std::to_string(count) +
                   " numbers, got " + std::to_string(out.size()));
  return out;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const std::string& key : order_) {
    if (!values_.at(key).used) out.push_back(key);
  }
  return out;
}

void Config::require_all_used(const std::string& consumer) const {
  const std::vector<std::string> unused = unused_keys();
  if (unused.empty()) return;
  std::string msg = consumer + ": unknown key";
  if (unused.size() > 1) msg += "s";
  for (const std::string& key : unused) {
    msg += " '" + key + "' (" + where(key) + ")";
  }
  throw Error(msg);
}

}  // namespace tbmd::io
