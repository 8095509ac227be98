#pragma once

/// \file trace.hpp
/// \brief In-memory span recorder for the traced run.
///
/// A span is {name, start, end, parent, step}.  Spans stay in memory while
/// the run executes and are written out once at the end, as Chrome
/// trace-event JSON (load it in chrome://tracing or Perfetto).  A span's
/// self time is its duration minus the durations of its direct children.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal
    double start_us;
    double end_us;
    int parent;  ///< index into spans(), -1 for a root span
    long step;
  };

  /// RAII span: opened by Tracer::scope, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(&tracer), id_(tracer.begin(name)) {}
    ~Scope() { tracer_->end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }

  /// MD step stamped on spans opened from now on.
  void set_step(long step) { step_ = step; }

  void clear() { spans_.clear(); }

  /// Total self time (ms) per span name over spans stamped with a step in
  /// [first_step, last_step].
  [[nodiscard]] std::map<std::string, double> self_ms(long first_step,
                                                      long last_step) const;

  /// Total duration (ms) of spans named `name` in [first_step, last_step].
  [[nodiscard]] double total_ms(const std::string& name, long first_step,
                                long last_step) const;

  /// Write every span as Chrome trace-event JSON.
  void write_chrome(const std::string& path) const;

 private:
  int begin(const char* name);
  void end(int id);
  [[nodiscard]] double now_us() const;

  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  long step_ = 0;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace e2e
