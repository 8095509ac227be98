#pragma once

/// \file config.hpp
/// \brief Keyword configuration files for the simulation and job runners.
///
/// Format: one `key = value` pair per line; `#` starts a comment; keys are
/// case-insensitive; values keep their spelling.  Lists are whitespace
/// separated ("cells = 2 2 2").
///
/// Every entry remembers the file and line it came from, so typed accessors
/// raise errors of the form "job.cfg:7: config key 'steps' ...".  The
/// parser also tracks which keys have been read: after consuming a config,
/// callers can ask for unused_keys() and warn about (or reject) entries the
/// consumer never looked at -- a misspelled key in a job spec fails loudly
/// instead of silently falling back to a default.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace tbmd::io {

/// Parsed key-value configuration.
class Config {
 public:
  /// Parse from text; throws tbmd::Error carrying `source` and the line
  /// number on syntax errors (missing '=', empty key, duplicate key).
  [[nodiscard]] static Config parse_string(const std::string& text,
                                           const std::string& source =
                                               "<config>");

  /// Parse a file (the path becomes the error-message source); throws
  /// tbmd::Error if unreadable.
  [[nodiscard]] static Config parse_file(const std::string& path);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters with defaults.  The *required* variants throw with the
  /// key name and source location when absent (or, for the fixed-size list
  /// forms, when the count does not match).
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::string require_string(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] double require_double(const std::string& key) const;
  [[nodiscard]] long get_long(const std::string& key, long fallback) const;
  [[nodiscard]] long require_long(const std::string& key) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] bool require_bool(const std::string& key) const;
  [[nodiscard]] std::vector<long> get_longs(const std::string& key,
                                            std::vector<long> fallback) const;
  [[nodiscard]] std::vector<double> get_doubles(
      const std::string& key, std::vector<double> fallback) const;
  [[nodiscard]] std::vector<double> require_doubles(const std::string& key,
                                                    std::size_t count) const;

  /// All keys (normalized to lower case, insertion order).
  [[nodiscard]] const std::vector<std::string>& keys() const { return order_; }

  /// File (or synthetic source name) this config was parsed from.
  [[nodiscard]] const std::string& source() const { return source_; }

  /// 1-based source line of `key`; 0 when the key does not exist.
  [[nodiscard]] int line(const std::string& key) const;

  /// "source:line" prefix for error/warning messages about `key`.
  [[nodiscard]] std::string where(const std::string& key) const;

  /// Keys that no accessor (has/get/require) has looked at yet, in
  /// insertion order.  Consumers call this after reading everything they
  /// understand; a non-empty result means the file contains entries nobody
  /// interpreted -- usually a typo.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

  /// Throw a tbmd::Error listing every unused key with its source line.
  /// `consumer` names the reader in the message ("job spec", ...).
  void require_all_used(const std::string& consumer) const;

 private:
  struct Entry {
    std::string value;
    int line = 0;
    mutable bool used = false;
  };

  [[nodiscard]] const Entry* find(const std::string& key) const;
  [[nodiscard]] const Entry& require(const std::string& key) const;
  [[nodiscard]] std::string context(const std::string& key,
                                    const Entry& entry) const;

  std::string source_ = "<config>";
  std::map<std::string, Entry> values_;
  std::vector<std::string> order_;
};

}  // namespace tbmd::io
