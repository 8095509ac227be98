#pragma once

/// \file eigen_sym.hpp
/// \brief Dense symmetric eigensolver entry points: full spectrum, values
/// only, and the implicit-shift QL iteration on a tridiagonal matrix.
///
/// The algorithm family (Householder tridiagonalization + QL, EISPACK /
/// LAPACK lineage) is the one the 1994-era TBMD codes used; the blocked,
/// OpenMP-parallel reduction lives in eigen_partial.hpp.  The O(N^3)
/// diagonalization is the dominant cost of exact tight-binding MD and the
/// central scaling bottleneck the paper's evaluation investigates.

#include <vector>

#include "src/linalg/matrix.hpp"

namespace tbmd::linalg {

/// Eigenvalues (ascending) and matching eigenvectors of a real symmetric
/// matrix.  Column j of `vectors` is the unit eigenvector for `values[j]`.
struct SymmetricEigenSolution {
  std::vector<double> values;
  Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix.
///
/// The input is validated to be square and (approximately) symmetric; the
/// strictly lower triangle is the authoritative data.  Routes through
/// eigh_range(a, 0, n-1) (blocked Householder + values-only QL/bisection +
/// inverse iteration + blocked back-transform, see eigen_partial.hpp).
[[nodiscard]] SymmetricEigenSolution eigh(const Matrix& a);

/// Eigenvalues only (ascending): eigvalsh_range(a, 0, n-1), with no
/// eigenvector or back-transform cost.
[[nodiscard]] std::vector<double> eigvalsh(const Matrix& a);

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// `d` (diagonal) and `e` (subdiagonal, e[0] = 0 convention, e[i] =
/// T(i, i-1)) are overwritten; on exit `d` holds the
/// (unsorted) eigenvalues.  If `z` is non-null it must be n x n, and the
/// accumulated rotations are applied to its columns (pass Q from the
/// Householder step to obtain eigenvectors of the original matrix, or the
/// identity to obtain eigenvectors of T itself).
void tql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
                        Matrix* z);

}  // namespace tbmd::linalg
