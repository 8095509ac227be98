#pragma once

/// \file eigen_oracle.hpp
/// \brief Reference eigensolver the tests compare the production solver
/// against: the classic TRED2/TQL2 path (EISPACK lineage).
///
/// householder_tridiagonalize is the unblocked Householder reduction with
/// an optional accumulated Q; eigh_ql runs it and then the implicit-shift
/// QL (linalg::tql_implicit_shift) applying every Givens rotation to the
/// eigenvector matrix.  Slower than linalg::eigh but independently derived,
/// which is what an oracle needs.  Production code never calls these.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "src/linalg/eigen_sym.hpp"
#include "src/linalg/matrix.hpp"
#include "src/util/error.hpp"

namespace tbmd::linalg {

/// Minimum (sub)matrix dimension before the Householder update loops are
/// worth forking threads for.
inline constexpr std::size_t kOracleParallelCutoff = 96;

/// Reduce a symmetric matrix to tridiagonal form with Householder
/// reflections: Q^T A Q = T.  On exit `d` holds the diagonal of T and `e`
/// the subdiagonal (e[0] = 0, e[i] = T(i, i-1)).  If `accumulate` is true,
/// `a` is overwritten with the orthogonal matrix Q; otherwise its contents
/// are destroyed.
inline void householder_tridiagonalize(Matrix& a, std::vector<double>& d,
                                       std::vector<double>& e,
                                       bool accumulate) {
  const std::size_t n = a.rows();
  TBMD_REQUIRE(n == a.cols(), "householder: matrix must be square");
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;
  if (n == 1) {
    d[0] = a(0, 0);
    if (accumulate) a(0, 0) = 1.0;
    return;
  }

  // Phase 1: reduce rows n-1 .. 1.  `d[i]` temporarily stores the
  // Householder h for row i (needed by the accumulation phase).
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        const double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;

        // e[j] <- (A v)_j / h for the trailing submatrix (lower triangle is
        // authoritative).  Independent across j -> parallel.
        [[maybe_unused]] const bool par = (l + 1) >= kOracleParallelCutoff;
#pragma omp parallel for schedule(dynamic, 16) if (par)
        for (std::size_t j = 0; j <= l; ++j) {
          if (accumulate) a(j, i) = a(i, j) / h;
          double gj = 0.0;
          for (std::size_t k = 0; k <= j; ++k) gj += a(j, k) * a(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) gj += a(k, j) * a(i, k);
          e[j] = gj / h;
        }

        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) f += e[j] * a(i, j);
        const double hh = f / (h + h);

        // K = e - hh*v, then rank-2 update A <- A - v K^T - K v^T on the
        // lower triangle.  Update all of e first so row updates can run in
        // parallel.
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * a(i, j);
#pragma omp parallel for schedule(dynamic, 16) if (par)
        for (std::size_t j = 0; j <= l; ++j) {
          const double fj = a(i, j);
          const double ej = e[j];
          double* arow = a.row(j);
          const double* virow = a.row(i);
          for (std::size_t k = 0; k <= j; ++k) {
            arow[k] -= fj * e[k] + ej * virow[k];
          }
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;

  // Phase 2: accumulate transformations (Q) and extract the diagonal.
  for (std::size_t i = 0; i < n; ++i) {
    if (accumulate) {
      if (d[i] != 0.0) {
        // Left-multiply the accumulated Q by this reflection.
        [[maybe_unused]] const bool par = i >= kOracleParallelCutoff;
#pragma omp parallel for schedule(static) if (par)
        for (std::size_t j = 0; j < i; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
          for (std::size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
        }
      }
      d[i] = a(i, i);
      a(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        a(j, i) = 0.0;
        a(i, j) = 0.0;
      }
    } else {
      d[i] = a(i, i);
    }
  }
}

/// Full eigendecomposition via TRED2/TQL2: Householder reduction with
/// accumulated Q, then implicit-shift QL applying every Givens rotation to
/// the eigenvector matrix, then an ascending sort of the pairs.
inline SymmetricEigenSolution eigh_ql(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "eigh_ql: matrix must be square");
  Matrix z = a;
  std::vector<double> d, e;
  householder_tridiagonalize(z, d, e, /*accumulate=*/true);
  tql_implicit_shift(d, e, &z);

  const std::size_t n = d.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(),
            [&](std::size_t p, std::size_t q) { return d[p] < d[q]; });
  SymmetricEigenSolution out;
  out.values.resize(n);
  out.vectors.resize(n, n);
  for (std::size_t j = 0; j < n; ++j) out.values[j] = d[perm[j]];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) out.vectors(i, j) = z(i, perm[j]);
  }
  return out;
}

}  // namespace tbmd::linalg
