#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/error.hpp"
#include "workloads.hpp"

namespace e2e {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--warmup") {
      a.warmup = true;
      continue;
    }
    TBMD_REQUIRE(i + 1 < argc, "missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      TBMD_REQUIRE(end != val.c_str() && *end == '\0', "bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      TBMD_REQUIRE(end != val.c_str() && *end == '\0' && a.seconds > 0.0,
                   "bad --seconds " + val);
    } else if (key == "--out") {
      a.out = val;
    } else {
      throw tbmd::Error("unknown argument " + key);
    }
  }
  require_workload(a.workload);
  return a;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("%s %s %.17g %s\n", workload_.c_str(), name.c_str(), value,
              unit.c_str());
  std::fflush(stdout);
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  std::fflush(stdout);
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::operations(long attempted, long failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Report::finish() {
  // A failed operation (unconverged purification, non-finite step, job
  // that did not complete) makes the run incorrect, like a failed check.
  const bool ok = failed_ == 0;
  metric("fail_frac",
         attempted_ > 0 ? static_cast<double>(failed_) /
                              static_cast<double>(attempted_)
                        : 0.0,
         "ratio");
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              ok ? "true" : "false", std::max(attempted_, 1L), failed_);
  for (std::size_t k = 0; k < metrics_.size(); ++k) {
    const double v = std::isfinite(metrics_[k].value) ? metrics_[k].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", metrics_[k].name.c_str(), v,
                metrics_[k].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return ok ? 0 : 1;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
