#pragma once

/// \file eigen_partial.hpp
/// \brief Partial-spectrum symmetric eigensolver in two stages: blocked
/// Householder tridiagonalization and the whole spectrum's values from the
/// root-free QL, then inverse-iteration eigenvectors and the blocked
/// back-transform for a window of them.
///
/// A TBMD step only needs the occupied ~Ne/2 of N eigenpairs to form the
/// density matrix and the Hellmann-Feynman forces, so computing every
/// eigenvector at every timestep wastes more than half of the O(N^3)
/// budget.  The values stage costs one O(n^2) QL pass, so it always
/// returns the whole spectrum; a caller that picks its window from the
/// values (the exact TB engine picks the states its occupations weight)
/// then pays the vectors stage -- shifted inverse iteration with cluster
/// reorthogonalization, and the back-transform applying the blocked WY
/// reflectors to the requested columns only -- for that window alone.
/// eigh_range() runs both stages for an index range [il, iu].  Results do
/// not depend on the thread count.

#include <cstddef>
#include <vector>

#include "src/linalg/blocked_tridiag.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/linalg/matrix.hpp"

namespace tbmd::linalg {

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

/// The values stage of a dense symmetric eigensolve: the blocked
/// Householder reduction Q^T A Q = T and every eigenvalue of T.
struct ReducedSpectrum {
  TridiagFactorization reduction;
  std::vector<double> values;  ///< all n eigenvalues, ascending (QL)
};

/// Reduce the dense symmetric `a` (lower triangle read) to tridiagonal form
/// and take its whole spectrum from ql_eigenvalues.  eigvalsh(a) returns
/// the `values` of this stage.
[[nodiscard]] ReducedSpectrum reduce_spectrum(const Matrix& a);

/// The vectors stage: eigenpairs il .. iu (0-based indices into the
/// ascending spectrum) of the matrix `s` was reduced from.  `values` holds
/// the iu - il + 1 eigenvalues, refined by the inverse iteration's
/// Rayleigh polish (see tridiagonal_eigenvectors), and column j of
/// `vectors` the eigenvector of values[j].  When the polish reorders
/// near-ties, the pairs are sorted again, so `values` stays ascending.
[[nodiscard]] SymmetricEigenSolution window_eigenpairs(
    const ReducedSpectrum& s, std::size_t il, std::size_t iu);

/// Both stages: eigenpairs il .. iu of a dense symmetric matrix.
/// eigh(a) is equivalent to eigh_range(a, 0, n-1).
[[nodiscard]] SymmetricEigenSolution eigh_range(const Matrix& a,
                                                std::size_t il,
                                                std::size_t iu);

}  // namespace tbmd::linalg
