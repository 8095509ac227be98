#include "trace.hpp"

#include <fstream>

#include "src/util/error.hpp"

namespace e2e {

int Tracer::begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_us(), 0.0, parent, step_});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  open_.pop_back();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::map<std::string, double> Tracer::self_ms(long first_step,
                                              long last_step) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    if (s.step < first_step || s.step > last_step) continue;
    out[s.name] += 1e-3 * (s.end_us - s.start_us - child_us[k]);
  }
  return out;
}

double Tracer::total_ms(const std::string& name, long first_step,
                        long last_step) const {
  double us = 0.0;
  for (const Span& s : spans_) {
    if (s.step >= first_step && s.step <= last_step && name == s.name) {
      us += s.end_us - s.start_us;
    }
  }
  return 1e-3 * us;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  TBMD_REQUIRE(os.good(), "cannot open trace file " + path);
  os.precision(15);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    os << (k == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.start_us
       << ", \"dur\": " << (s.end_us - s.start_us)
       << ", \"args\": {\"step\": " << s.step << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n]}\n";
  TBMD_REQUIRE(os.good(), "write failed for trace file " + path);
}

}  // namespace e2e
