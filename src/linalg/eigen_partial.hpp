#pragma once

/// \file eigen_partial.hpp
/// \brief Partial-spectrum symmetric eigensolver: blocked Householder
/// tridiagonalization, root-free QL or Sturm-bisection eigenvalues,
/// inverse-iteration eigenvectors, blocked back-transform.
///
/// A TBMD step only needs the occupied ~Ne/2 of N eigenpairs to form the
/// density matrix and the Hellmann-Feynman forces, so computing the full
/// spectrum at every timestep wastes more than half of the O(N^3) budget.
/// eigh_range() answers index-range queries [il, iu]: the reduction to
/// tridiagonal form is shared with the full solver, eigenvalues in the range
/// come from parallel Sturm bisection (or the root-free QL when the range
/// covers more than an eighth of the spectrum), eigenvectors from
/// shifted inverse iteration with cluster reorthogonalization, and the
/// back-transform applies the blocked WY reflectors only to the requested
/// columns.  Results do not depend on the thread count.

#include <cstddef>
#include <vector>

#include "src/linalg/eigen_sym.hpp"
#include "src/linalg/matrix.hpp"

namespace tbmd::linalg {

/// Eigenvalues k = il .. iu (0-based, ascending order) of the symmetric
/// tridiagonal matrix (diagonal `d`, subdiagonal `e` with e[i] = T(i, i-1),
/// e[0] unused) by Sturm-sequence bisection.  Bisections for distinct
/// indices are independent and run in parallel via tbmd::par.
[[nodiscard]] std::vector<double> tridiagonal_eigenvalues_range(
    const std::vector<double>& d, const std::vector<double>& e,
    std::size_t il, std::size_t iu);

/// Eigenvectors of the symmetric tridiagonal matrix for the given ascending
/// eigenvalues (the contiguous index range of the spectrum starting at
/// global index `il`), one per column of the returned n x m matrix, by
/// shifted inverse iteration.
///
/// Clustered eigenvalues (gap below ~1e-3 of the spectral width) are
/// perturbed apart for the factorizations and reorthogonalized by modified
/// Gram-Schmidt; the matrix is split into irreducible blocks at negligible
/// subdiagonals and clusters spanning several blocks are resolved
/// block-by-block so eigenvectors never mix uncoupled subsystems -- the
/// LAPACK xSTEIN treatment.  Isolated eigenpairs get one Rayleigh-quotient
/// polish step; `values` is updated in place with the refined eigenvalues
/// (never moved past a neighbor).  Independent clusters run in parallel via
/// tbmd::par.
[[nodiscard]] Matrix tridiagonal_eigenvectors(const std::vector<double>& d,
                                              const std::vector<double>& e,
                                              std::vector<double>& values,
                                              std::size_t il = 0);

/// Eigenpairs il .. iu (0-based indices into the ascending spectrum) of a
/// dense symmetric matrix.  `values` holds the iu - il + 1 requested
/// eigenvalues and column j of `vectors` the eigenvector of values[j].
/// eigh(a) is equivalent to eigh_range(a, 0, n-1).
[[nodiscard]] SymmetricEigenSolution eigh_range(const Matrix& a,
                                                std::size_t il,
                                                std::size_t iu);

/// Eigenvalues il .. iu only; no eigenvector or back-transform cost.
[[nodiscard]] std::vector<double> eigvalsh_range(const Matrix& a,
                                                 std::size_t il,
                                                 std::size_t iu);

}  // namespace tbmd::linalg
