#pragma once

/// \file eigen_sym.hpp
/// \brief Dense symmetric eigensolver entry points: full spectrum, values
/// only, and the root-free QL iteration on a tridiagonal matrix.
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
/// The input must be square.  Only its lower triangle (diagonal included)
/// is read, and symmetry is not checked: that would cost an O(n^2) scan
/// per MD step.  Routes through eigh_range(a, 0, n-1) (blocked Householder
/// + root-free QL/bisection + inverse iteration + blocked back-transform,
/// see eigen_partial.hpp).
[[nodiscard]] SymmetricEigenSolution eigh(const Matrix& a);

/// Eigenvalues only (ascending): eigvalsh_range(a, 0, n-1), with no
/// eigenvector or back-transform cost.
[[nodiscard]] std::vector<double> eigvalsh(const Matrix& a);

/// Eigenvalues (ascending) of the symmetric tridiagonal matrix with
/// diagonal `d` and subdiagonal `e` (e[i] = T(i, i-1), e[0] unused).
///
/// Root-free Pal-Walker-Kahan QL, the scheme of LAPACK dsterf: each sweep
/// runs on the squared subdiagonals, so a rotation takes no square root,
/// and a 2x2 block is solved in closed form.  Before squaring, an
/// unreduced block whose largest entry lies outside dsterf's safe range
/// is scaled by a power of two, so the squares neither overflow nor
/// underflow; blocks inside the range are left as they are.  Throws
/// tbmd::Error when 30 n sweeps in total do not converge.
[[nodiscard]] std::vector<double> ql_eigenvalues(std::vector<double> d,
                                                 std::vector<double> e);

}  // namespace tbmd::linalg
