#include "src/linalg/eigen_sym.hpp"

#include <cmath>

#include "src/linalg/eigen_partial.hpp"
#include "src/util/error.hpp"

namespace tbmd::linalg {

void tql_implicit_shift(std::vector<double>& d, std::vector<double>& e,
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

SymmetricEigenSolution eigh(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "eigh: matrix must be square");
  if (a.rows() == 0) return {};
  return eigh_range(a, 0, a.rows() - 1);
}

std::vector<double> eigvalsh(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "eigvalsh: matrix must be square");
  if (a.rows() == 0) return {};
  return eigvalsh_range(a, 0, a.rows() - 1);
}

}  // namespace tbmd::linalg
