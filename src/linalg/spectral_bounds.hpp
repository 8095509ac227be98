#pragma once

/// \file spectral_bounds.hpp
/// \brief Shared Gershgorin spectral-bounds estimates.
///
/// One interval type used everywhere an algorithm needs a cheap enclosure of
/// a symmetric spectrum: inverse iteration scales its cluster and residual
/// tolerances by it, the O(N) purification engines (Palser-Manolopoulos,
/// SP2) use it to build their [0, 1] linear maps of H, and the tridiagonal
/// utilities use it to bracket Sturm bisection.  Keeping the estimate in one
/// place makes the dense, tridiagonal and sparse paths agree on what "the
/// spectrum" is.

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"

namespace tbmd::linalg {

/// Closed interval [lo, hi] guaranteed to contain every eigenvalue of the
/// matrix it was computed from (Gershgorin disc union for symmetric input).
struct SpectralBounds {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] double width() const { return hi - lo; }
  /// Scale of the spectrum for relative tolerances: max(|lo|, |hi|).
  [[nodiscard]] double scale() const;
};

/// Gershgorin bounds of a dense symmetric matrix (row sums of |off-diag|).
[[nodiscard]] SpectralBounds gershgorin_bounds(const Matrix& a);

/// Gershgorin bounds of a symmetric tridiagonal matrix with diagonal `d` and
/// subdiagonal `e` in the e[i] = T(i, i-1) convention (e[0] unused).
[[nodiscard]] SpectralBounds gershgorin_bounds(const std::vector<double>& d,
                                               const std::vector<double>& e);

}  // namespace tbmd::linalg
