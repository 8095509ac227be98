#include "src/tb/density_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::tb {

linalg::Matrix density_matrix(const linalg::Matrix& eigenvectors,
                              const std::vector<double>& weights) {
  const std::size_t n = eigenvectors.rows();
  const std::size_t m = eigenvectors.cols();
  TBMD_REQUIRE(m <= n, "density_matrix: more states than orbitals");
  TBMD_REQUIRE(weights.size() == m, "density_matrix: weight count mismatch");

  // Gather occupied columns scaled by sqrt(w): rho = B B^T.
  std::vector<std::size_t> occupied;
  std::vector<double> scale;
  for (std::size_t k = 0; k < m; ++k) {
    const double w = weights[k];
    TBMD_REQUIRE(std::isfinite(w),
                 "density_matrix: non-finite occupation weight");
    TBMD_REQUIRE(w >= 0.0, "density_matrix: negative occupation");
    if (w > 0.0) {
      occupied.push_back(k);
      scale.push_back(std::sqrt(w));
    }
  }
  const std::size_t nocc = occupied.size();

  linalg::Matrix rho(n, n, 0.0);
  if (nocc == 0) return rho;

  // B is stored transposed (row c = occupied column c), which the syrk
  // micro-kernel reads in place; gathered in blocks of kRows orbitals so
  // each block's eigenvector rows stay in cache.
  constexpr std::size_t kRows = 64;
  linalg::Matrix bt(nocc, n);
  [[maybe_unused]] const bool par = par::worth_parallelizing(n, nocc);
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t i0 = 0; i0 < n; i0 += kRows) {
    const std::size_t i1 = std::min(i0 + kRows, n);
    for (std::size_t c = 0; c < nocc; ++c) {
      double* btc = bt.row(c);
      for (std::size_t i = i0; i < i1; ++i) {
        btc[i] = scale[c] * eigenvectors(i, occupied[c]);
      }
    }
  }

  // Symmetric rank-k update on the shared micro-kernel: lower triangle
  // only, then mirrored, so rho comes back exactly symmetric.
  linalg::syrk(1.0, {bt.data(), 1, n}, nocc, 0.0, rho);
  return rho;
}

}  // namespace tbmd::tb
