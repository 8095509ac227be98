#include "src/linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "src/linalg/eigen_partial.hpp"
#include "src/util/error.hpp"

namespace tbmd::linalg {

namespace {

/// e[m] with |e[m]| <= kDeflate (|d[m]| + |d[m+1]|) decouples rows m and
/// m + 1.
constexpr double kDeflate = 2.3e-16;

/// dsterf's safe range for a block's largest entry: sqrt(safe minimum) /
/// eps^2 and sqrt(overflow) / 3, rounded to powers of two.  Inside it the
/// squared subdiagonals and the sweep's gamma^2 stay finite and normal.
constexpr double kSafeMin = 0x1p-405;
constexpr double kSafeMax = 0x1p510;

/// Eigenvalues of the symmetric 2x2 [[a, b], [b, c]], the larger magnitude
/// first (LAPACK dlae2, with std::hypot for the discriminant).
std::pair<double, double> eigenvalues_2x2(double a, double b, double c) {
  const double sm = a + c;
  const double rt = std::hypot(a - c, 2.0 * b);
  if (sm == 0.0) return {0.5 * rt, -0.5 * rt};
  const double rt1 = 0.5 * (sm + std::copysign(rt, sm));
  // The smaller one is (a c - b^2) / rt1, in dlae2's order of operations
  // so that a c cannot overflow.
  const bool a_larger = std::fabs(a) > std::fabs(c);
  const double acmx = a_larger ? a : c;
  const double acmn = a_larger ? c : a;
  return {rt1, (acmx / rt1) * acmn - (b / rt1) * b};
}

}  // namespace

std::vector<double> ql_eigenvalues(std::vector<double> d,
                                   std::vector<double> e) {
  const std::size_t n = d.size();
  TBMD_REQUIRE(e.size() == n, "ql_eigenvalues: d/e size mismatch");
  if (n <= 1) return d;

  // Shift the subdiagonal down by one: e[i] couples d[i] and d[i+1].
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const auto threshold = [&](std::size_t i) {
    return kDeflate * (std::fabs(d[i]) + std::fabs(d[i + 1]));
  };

  const std::size_t max_sweeps = 30 * n;
  std::size_t sweeps = 0;
  for (std::size_t lo = 0; lo < n;) {
    // Unreduced block [lo, hi]: no e[lo .. hi-1] is negligible (a NaN
    // does not split, so it fails to converge instead of vanishing).
    std::size_t hi = lo;
    while (hi + 1 < n && !(std::fabs(e[hi]) <= threshold(hi))) ++hi;
    if (hi == lo) {
      ++lo;
      continue;
    }

    double norm = std::fabs(d[hi]);
    for (std::size_t i = lo; i < hi; ++i) {
      norm = std::max({norm, std::fabs(d[i]), std::fabs(e[i])});
    }
    int exponent = 0;
    if (norm > 0.0 && std::isfinite(norm) &&
        (norm < kSafeMin || norm > kSafeMax)) {
      exponent = -std::ilogb(norm);
      for (std::size_t i = lo; i <= hi; ++i) d[i] = std::scalbn(d[i], exponent);
      for (std::size_t i = lo; i < hi; ++i) e[i] = std::scalbn(e[i], exponent);
    }
    for (std::size_t i = lo; i < hi; ++i) e[i] *= e[i];

    for (std::size_t l = lo; l <= hi;) {
      std::size_t m = l;
      for (; m < hi; ++m) {
        const double t = threshold(m);
        if (e[m] <= t * t) break;
      }
      if (m < hi) e[m] = 0.0;
      if (m == l) {
        ++l;
        continue;
      }
      if (m == l + 1) {
        std::tie(d[l], d[l + 1]) =
            eigenvalues_2x2(d[l], std::sqrt(e[l]), d[l + 1]);
        e[l] = 0.0;
        l += 2;
        continue;
      }
      TBMD_REQUIRE(sweeps++ < max_sweeps,
                   "ql_eigenvalues: QL iteration did not converge");

      // Wilkinson shift from the top 2x2, then chase the bulge from m-1 up
      // to l.  c and s are the squared cosine and sine of each rotation and
      // p = gamma^2 / c carries the next one, so no rotation takes a root.
      const double rte = std::sqrt(e[l]);
      double sigma = (d[l + 1] - d[l]) / (2.0 * rte);
      sigma =
          d[l] - rte / (sigma + std::copysign(std::hypot(sigma, 1.0), sigma));
      double c = 1.0;
      double s = 0.0;
      double gamma = d[m] - sigma;
      double p = gamma * gamma;
      for (std::size_t i = m; i-- > l;) {
        const double bb = e[i];
        const double r = p + bb;
        if (i + 1 < m) e[i + 1] = s * r;
        const double oldc = c;
        c = p / r;
        s = bb / r;
        const double oldgam = gamma;
        const double alpha = d[i];
        gamma = c * (alpha - sigma) - s * oldgam;
        d[i + 1] = oldgam + (alpha - gamma);
        p = (c != 0.0) ? (gamma * gamma) / c : oldc * bb;
      }
      e[l] = s * p;
      d[l] = sigma + gamma;
    }

    if (exponent != 0) {
      for (std::size_t i = lo; i <= hi; ++i) {
        d[i] = std::scalbn(d[i], -exponent);
      }
    }
    lo = hi + 1;
  }
  std::sort(d.begin(), d.end());
  return d;
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
