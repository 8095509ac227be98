#pragma once

/// \file timer.hpp
/// \brief Wall-clock stopwatch used by the benchmark harness and by the
/// calculators' per-phase StepReport timing (src/core/calculator.hpp).

#include <chrono>

namespace tbmd {

/// Simple monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tbmd
