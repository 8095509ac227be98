#pragma once

/// \file rdf.hpp
/// \brief Radial distribution function g(r).

#include <vector>

#include "src/core/system.hpp"

namespace tbmd::analysis {

/// Accumulates pair-distance histograms over trajectory frames and
/// normalizes to g(r) for periodic systems (ideal-gas shell normalization).
/// For non-periodic systems the normalization volume uses the bounding
/// sphere, which preserves peak positions (the quantity of interest).
class RdfAccumulator {
 public:
  RdfAccumulator(double r_max, std::size_t bins);

  /// Accumulate all pair distances of one configuration.
  void add_frame(const System& system);

  /// Bin centers (A).
  [[nodiscard]] std::vector<double> r_values() const;

  /// Normalized g(r) averaged over the accumulated frames.
  [[nodiscard]] std::vector<double> g_of_r() const;

  /// Raw per-bin pair counts (all frames).
  [[nodiscard]] const std::vector<double>& counts() const { return hist_; }

  [[nodiscard]] std::size_t frames() const { return frames_; }

 private:
  double r_max_;
  std::size_t bins_;
  std::vector<double> hist_;
  std::size_t frames_ = 0;
  double atoms_acc_ = 0.0;    ///< sum over frames of N
  double density_acc_ = 0.0;  ///< sum over frames of N/V
};

}  // namespace tbmd::analysis
