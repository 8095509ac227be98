#pragma once

/// \file vacf.hpp
/// \brief Velocity autocorrelation function and vibrational density of
/// states (power spectrum).

#include <vector>

#include "src/core/system.hpp"

namespace tbmd::analysis {

/// Records velocity snapshots during MD and computes
///   C(t) = < v(t0) . v(t0 + t) > / < v(t0) . v(t0) >
/// averaged over atoms and time origins, plus its cosine transform (the
/// vibrational density of states).
class VacfAccumulator {
 public:
  /// \param sample_dt_fs  time between recorded snapshots (fs)
  explicit VacfAccumulator(double sample_dt_fs)
      : sample_dt_(sample_dt_fs) {}

  /// Record the current velocities.
  void add_frame(const System& system);

  /// Normalized C(t) for lags 0 .. max_lag-1 (multiple time origins).
  [[nodiscard]] std::vector<double> correlation(std::size_t max_lag) const;

  /// Vibrational DOS: D(f) = integral C(t) cos(2 pi f t) w(t) dt with a
  /// Hann window w.  `frequencies` in 1/fs (ordinary frequency).
  [[nodiscard]] std::vector<double> spectrum(
      const std::vector<double>& frequencies, std::size_t max_lag) const;

  [[nodiscard]] std::size_t frames() const { return snapshots_.size(); }

 private:
  double sample_dt_;
  std::vector<std::vector<Vec3>> snapshots_;
};

}  // namespace tbmd::analysis
