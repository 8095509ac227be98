#pragma once

/// \file harness.hpp
/// \brief Command line, metric lines, correctness accounting and the
/// closing JSON line shared by the timed and the traced driver.

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// `--workload W --seed S --seconds T [--out DIR] [--warmup]`.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall-clock length of the measured loop (s).
  double seconds = 15.0;
  /// Scratch directory for sweep output and trace files.
  std::string out = "bench/e2e/out";
  /// Set up once, take one step, report nothing (the discarded warm-up
  /// process that loads the binary and its pages before the measured one).
  bool warmup = false;
};

/// Parse argv; throws tbmd::Error on unknown or malformed arguments.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Collects one run's metrics and correctness checks.  Every metric is
/// printed at once as `workload metric value unit`; finish() prints the
/// closing JSON object {correct, attempted, failed, metrics}.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void metric(const std::string& name, double value, const std::string& unit);

  /// One checked operation: counts as attempted, and as failed unless ok.
  void check(bool ok, const std::string& what);

  /// A batch of operations (MD steps, jobs) of which `failed` failed.
  void operations(long attempted, long failed);

  /// Print fail_frac and the JSON line; returns the process exit code
  /// (nonzero when any operation failed).
  int finish();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Linear-interpolated percentile (q in [0, 100]) of `v`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set size of this process (MB).
[[nodiscard]] double peak_rss_mb();

}  // namespace e2e
