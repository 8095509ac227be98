#pragma once

/// \file eigen_oracle.hpp
/// \brief Reference eigensolvers the tests compare the production solver
/// against: the classic TRED2/TQL2 path (EISPACK lineage) and cyclic
/// Jacobi.
///
/// householder_tridiagonalize is the unblocked Householder reduction with
/// an optional accumulated Q; eigh_ql runs it and then the implicit-shift
/// QL (tql_implicit_shift, TQL2) applying every Givens rotation to the
/// eigenvector matrix; it shares no code with the production root-free
/// QL (linalg::ql_eigenvalues).  jacobi_eigh shares no code with either
/// path: it rotates the full matrix to diagonal form, which makes it the
/// slowest solver here and the simplest to check by eye.  Both are slower
/// than linalg::eigh but independently derived, which is what an oracle
/// needs.
/// Production code never calls these; bench/exp_a1_ablation.cpp times
/// jacobi_eigh against linalg::eigh.

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

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// `d` (diagonal) and `e` (subdiagonal, e[0] = 0 convention, e[i] =
/// T(i, i-1)) are overwritten; on exit `d` holds the
/// (unsorted) eigenvalues.  If `z` is non-null it must be n x n, and the
/// accumulated rotations are applied to its columns (pass Q from the
/// Householder step to obtain eigenvectors of the original matrix, or the
/// identity to obtain eigenvectors of T itself).
inline void tql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
                               Matrix* z) {
  const std::size_t n = d.size();
  TBMD_REQUIRE(e.size() == n, "tql: d/e size mismatch");
  if (z != nullptr) {
    TBMD_REQUIRE(z->rows() == n && z->cols() == n, "tql: z must be n x n");
  }
  if (n <= 1) return;

  // Shift the subdiagonal down by one: e[i] couples d[i] and d[i+1].
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  // Scratch for deferred rotation application (thread-parallel over rows).
  std::vector<double> sines, cosines;

  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      // Find the first negligible subdiagonal element at or after l.
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 2.3e-16 * dd) break;
      }
      if (m != l) {
        TBMD_REQUIRE(iterations++ < 50, "tql: QL iteration did not converge");
        // Form the implicit shift from the 2x2 at the top of the block.
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;

        sines.clear();
        cosines.clear();
        bool underflow = false;

        // Chase the bulge from m-1 down to l; record rotations so they can
        // be applied to the eigenvector rows in parallel afterwards.
        for (std::size_t ii = m; ii-- > l;) {
          double f = s * e[ii];
          const double b = c * e[ii];
          r = std::hypot(f, g);
          e[ii + 1] = r;
          if (r == 0.0) {
            // Deflate without finishing the sweep.
            d[ii + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[ii + 1] - p;
          r = (d[ii] - g) * s + 2.0 * c * b;
          p = s * r;
          d[ii + 1] = g + p;
          g = c * r - b;
          sines.push_back(s);
          cosines.push_back(c);
        }

        if (z != nullptr && !sines.empty()) {
          // Rotation q (q = 0 first recorded) acts on columns (i, i+1) with
          // i = m-1-q.  For a fixed row the column updates chain
          // sequentially, but rows are independent -> parallel over rows.
          Matrix& zz = *z;
          const std::size_t nrot = sines.size();
          [[maybe_unused]] const bool par = n * nrot >= 16384;
#pragma omp parallel for schedule(static) if (par)
          for (std::size_t k = 0; k < n; ++k) {
            double* zrow = zz.row(k);
            for (std::size_t q = 0; q < nrot; ++q) {
              const std::size_t i = m - 1 - q;
              const double sq = sines[q];
              const double cq = cosines[q];
              const double f = zrow[i + 1];
              zrow[i + 1] = sq * zrow[i] + cq * f;
              zrow[i] = cq * zrow[i] - sq * f;
            }
          }
        }

        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
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

/// Full eigendecomposition by cyclic Jacobi rotations, eigenpairs sorted
/// ascending.  Sweeps until the off-diagonal Frobenius norm falls below
/// `tol` times the matrix norm, or throws after `max_sweeps`.
inline SymmetricEigenSolution jacobi_eigh(const Matrix& a_in,
                                          double tol = 1e-12,
                                          int max_sweeps = 100) {
  TBMD_REQUIRE(a_in.rows() == a_in.cols(), "jacobi: matrix must be square");
  const std::size_t n = a_in.rows();
  Matrix a = a_in;
  Matrix v = Matrix::identity(n);
  const auto offdiagonal_norm = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
    }
    return std::sqrt(2.0 * s);
  };

  const double anorm = std::max(frobenius_norm(a), 1e-300);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (offdiagonal_norm() <= tol * anorm) {
      SymmetricEigenSolution out;
      out.values.resize(n);
      for (std::size_t i = 0; i < n; ++i) out.values[i] = a(i, i);
      out.vectors = std::move(v);
      // Sort ascending, permuting eigenvector columns to match.
      std::vector<std::size_t> perm(n);
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      std::sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
        return out.values[x] < out.values[y];
      });
      SymmetricEigenSolution sorted;
      sorted.values.resize(n);
      sorted.vectors.resize(n, n);
      for (std::size_t j = 0; j < n; ++j) {
        sorted.values[j] = out.values[perm[j]];
        for (std::size_t i = 0; i < n; ++i) {
          sorted.vectors(i, j) = out.vectors(i, perm[j]);
        }
      }
      return sorted;
    }

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = 0.5 * (aqq - app) / apq;
        // Smaller-root tangent for numerical stability.
        const double t = std::copysign(
            1.0 / (std::fabs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const double tau = s / (1.0 + c);

        a(p, p) = app - t * apq;
        a(q, q) = aqq + t * apq;
        a(p, q) = 0.0;
        a(q, p) = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          if (k != p && k != q) {
            const double akp = a(k, p);
            const double akq = a(k, q);
            a(k, p) = akp - s * (akq + tau * akp);
            a(p, k) = a(k, p);
            a(k, q) = akq + s * (akp - tau * akq);
            a(q, k) = a(k, q);
          }
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = vkp - s * (vkq + tau * vkp);
          v(k, q) = vkq + s * (vkp - tau * vkq);
        }
      }
    }
  }
  throw Error("jacobi_eigh: failed to converge within max_sweeps");
}

}  // namespace tbmd::linalg
