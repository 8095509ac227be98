#pragma once

/// \file least_squares.hpp
/// \brief Cholesky factorization, triangular solves and a normal-equations
/// least-squares fit.
///
/// The E(V) quadratic fits of exp_t1_cohesive.cpp use least_squares; the
/// Cholesky.*, LeastSquares.* and MatVec.* cases of tests/test_linalg.cpp
/// check these helpers.  No production path solves a linear system.

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/util/error.hpp"

namespace tbmd::linalg {

/// Lower-triangular L with A = L L^T.  Throws tbmd::Error if A is not
/// (numerically) positive definite.
[[nodiscard]] inline Matrix cholesky_factor(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    TBMD_REQUIRE(diag > 0.0, "cholesky: matrix is not positive definite");
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / ljj;
    }
  }
  return l;
}

/// Solve A x = b given the Cholesky factor L of A (forward + back
/// substitution).
[[nodiscard]] inline std::vector<double> cholesky_solve(
    const Matrix& l, const std::vector<double>& b) {
  const std::size_t n = l.rows();
  TBMD_REQUIRE(l.cols() == n && b.size() == n,
               "cholesky_solve: shape mismatch");
  // Forward: L y = b.
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Backward: L^T x = y.
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

/// y = A^T * x.
[[nodiscard]] inline std::vector<double> matvec_transposed(
    const Matrix& a, const std::vector<double>& x) {
  TBMD_REQUIRE(a.rows() == x.size(), "matvec_transposed: shape mismatch");
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    const double xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * arow[j];
  }
  return y;
}

/// Solve the linear least-squares problem min ||M x - y||_2 via the normal
/// equations M^T M x = M^T y.  Suitable for the small, well-conditioned
/// polynomial fits of the experiment harness.
[[nodiscard]] inline std::vector<double> least_squares(
    const Matrix& m, const std::vector<double>& y) {
  TBMD_REQUIRE(m.rows() == y.size(), "least_squares: row count mismatch");
  TBMD_REQUIRE(m.rows() >= m.cols(), "least_squares: underdetermined system");
  const std::size_t p = m.cols();
  Matrix mtm(p, p, 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* r = m.row(i);
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t b = 0; b <= a; ++b) mtm(a, b) += r[a] * r[b];
    }
  }
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = a + 1; b < p; ++b) mtm(a, b) = mtm(b, a);
  }
  const std::vector<double> rhs = matvec_transposed(m, y);
  const Matrix l = cholesky_factor(mtm);
  return cholesky_solve(l, rhs);
}

}  // namespace tbmd::linalg
