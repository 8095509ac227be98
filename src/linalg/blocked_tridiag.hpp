#pragma once

/// \file blocked_tridiag.hpp
/// \brief Blocked (level-3) Householder tridiagonalization and the matching
/// blocked application of the orthogonal factor Q.
///
/// The classic TRED2-style reduction (eigen_sym.hpp) applies every rank-2
/// update to the trailing matrix immediately, so it runs at BLAS-2 speed.
/// This module is the LAPACK SYTRD/LATRD counterpart: within a panel of
/// `block` columns only the current column is updated, the per-reflector
/// couplings are accumulated into an auxiliary W panel, and the trailing
/// submatrix receives one symmetric rank-2k (GEMM-shaped) update per panel.
/// The reflectors are kept in factored form so eigenvector back-transforms
/// can be applied as compact WY blocks -- three GEMMs per panel -- instead of
/// one Givens rotation at a time.  This is what turns the O(N^3)
/// diagonalization, the dominant cost of exact tight-binding MD, from a
/// memory-bound into a compute-bound kernel.

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"

namespace tbmd::linalg {

/// Factored result of a blocked tridiagonalization Q^T A Q = T.
///
/// Row j of `reflectors` stores the Householder vector v_j of
/// H_j = I - tau_j v_j v_j^T in columns j+1 .. n-1 (with v_j[j+1] = 1 stored
/// explicitly); every other entry is zero, so any block of consecutive rows
/// is an exact V^T for the compact WY back-transform.
/// Q = H_0 H_1 ... H_{n-3}.
struct TridiagFactorization {
  Matrix reflectors;        ///< n x n, Householder vectors above the diagonal
  std::vector<double> tau;  ///< n entries; tau[j] = 0 where no reflector exists
  std::vector<double> d;    ///< diagonal of T
  std::vector<double> e;    ///< subdiagonal of T, e[0] = 0, e[i] = T(i, i-1)

  [[nodiscard]] std::size_t size() const { return d.size(); }
};

/// Reduce the symmetric matrix `a` (lower triangle authoritative) to
/// tridiagonal form with panel-blocked Householder reflections.
/// `block` is the panel width; the default is tuned for the TB Hamiltonian
/// sizes the benchmarks cover (N ~ 64 .. 1024).
[[nodiscard]] TridiagFactorization blocked_tridiagonalize(const Matrix& a,
                                                          std::size_t block = 32);

/// Z <- Q * Z for an n x m matrix Z, applying the factored reflectors as
/// compact WY blocks: per panel, T from one V^T V product, W1 = V^T Z, then
/// Z -= V (T W1), all on the blas micro-kernel.  This is the
/// back-transform taking eigenvectors of T to eigenvectors of A and costs
/// ~4 n^2 m flops; for partial-spectrum queries m << n it is the step that
/// makes occupied-only diagonalization cheap.
void apply_q(const TridiagFactorization& f, Matrix& z);

}  // namespace tbmd::linalg
