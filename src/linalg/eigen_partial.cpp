#include "src/linalg/eigen_partial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/linalg/blas.hpp"
#include "src/linalg/blocked_tridiag.hpp"
#include "src/linalg/spectral_bounds.hpp"
#include "src/linalg/tridiagonal.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "src/util/random.hpp"

namespace tbmd::linalg {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// LU factorization of T - shift with partial pivoting (LAPACK xGTTRF
/// layout: multipliers dl, diagonal u0, first/second superdiagonals u1/u2).
/// Pivots smaller than `floor` are clamped so shifts at (or numerically
/// inside) the spectrum stay solvable -- exactly what inverse iteration
/// wants: the solution then explodes along the eigenvector.
struct TridiagLu {
  std::vector<double> dl, u0, u1, u2;
  std::vector<char> swapped;

  void factor(const std::vector<double>& d, const std::vector<double>& e,
              double shift, double floor) {
    const std::size_t n = d.size();
    dl.assign(n > 0 ? n - 1 : 0, 0.0);
    u0.resize(n);
    u1.assign(n > 0 ? n - 1 : 0, 0.0);
    u2.assign(n > 1 ? n - 2 : 0, 0.0);
    swapped.assign(n > 0 ? n - 1 : 0, 0);
    for (std::size_t i = 0; i < n; ++i) u0[i] = d[i] - shift;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      dl[i] = e[i + 1];
      u1[i] = e[i + 1];
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (std::fabs(u0[i]) >= std::fabs(dl[i])) {
        if (std::fabs(u0[i]) < floor) {
          u0[i] = (u0[i] >= 0.0) ? floor : -floor;
        }
        const double fact = dl[i] / u0[i];
        dl[i] = fact;
        u0[i + 1] -= fact * u1[i];
        if (i + 2 < n) u2[i] = 0.0;
        swapped[i] = 0;
      } else {
        // |dl[i]| > |u0[i]| >= 0, so the pivot is safely nonzero.
        const double fact = u0[i] / dl[i];
        u0[i] = dl[i];
        dl[i] = fact;
        const double temp = u1[i];
        u1[i] = u0[i + 1];
        u0[i + 1] = temp - fact * u0[i + 1];
        if (i + 2 < n) {
          u2[i] = u1[i + 1];
          u1[i + 1] = -fact * u1[i + 1];
        }
        swapped[i] = 1;
      }
    }
    if (n > 0 && std::fabs(u0[n - 1]) < floor) {
      u0[n - 1] = (u0[n - 1] >= 0.0) ? floor : -floor;
    }
  }

  void solve(std::vector<double>& b) const {
    const std::size_t n = u0.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (swapped[i]) {
        const double temp = b[i];
        b[i] = b[i + 1];
        b[i + 1] = temp - dl[i] * b[i];
      } else {
        b[i + 1] -= dl[i] * b[i];
      }
    }
    b[n - 1] /= u0[n - 1];
    if (n == 1) return;
    b[n - 2] = (b[n - 2] - u1[n - 2] * b[n - 1]) / u0[n - 2];
    for (std::size_t i = n - 2; i-- > 0;) {
      b[i] = (b[i] - u1[i] * b[i + 1] - u2[i] * b[i + 2]) / u0[i];
    }
  }
};

/// || (T - lambda) x ||_inf for the e[i] = T(i, i-1) convention.
double tridiag_residual_inf(const std::vector<double>& d,
                            const std::vector<double>& e, double lambda,
                            const std::vector<double>& x) {
  const std::size_t n = d.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = (d[i] - lambda) * x[i];
    if (i > 0) r += e[i] * x[i - 1];
    if (i + 1 < n) r += e[i + 1] * x[i + 1];
    worst = std::max(worst, std::fabs(r));
  }
  return worst;
}

double rayleigh_quotient(const std::vector<double>& d,
                         const std::vector<double>& e,
                         const std::vector<double>& x) {
  const std::size_t n = d.size();
  double rho = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double tx = d[i] * x[i];
    if (i > 0) tx += e[i] * x[i - 1];
    if (i + 1 < n) tx += e[i + 1] * x[i + 1];
    rho += x[i] * tx;
  }
  return rho;  // x is unit-norm
}

void fill_random_unit(std::vector<double>& x, std::uint64_t seed) {
  Rng rng(seed);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const double nrm = norm2(x);
  for (double& v : x) v /= nrm;
}

struct InvitParams {
  double pivot_floor = 0.0;
  double res_tol = 0.0;
  double sep = 0.0;
};

/// One inverse-iteration eigenvector of the (sub)tridiagonal (db, eb),
/// solved at shift `lam_solve`, accepted against `lam_true`, written into
/// z(row0 .. row0+len-1, col) and left in `x`.  Orthogonalized (modified
/// Gram-Schmidt, every iteration) against the columns listed in `mgs`,
/// which must share the same row support.
void invit_column(const std::vector<double>& db, const std::vector<double>& eb,
                  double lam_solve, double lam_true, const InvitParams& prm,
                  std::uint64_t seed, Matrix& z, std::size_t row0,
                  std::size_t col, const std::vector<std::size_t>& mgs,
                  std::vector<double>& x) {
  const std::size_t len = db.size();
  TridiagLu lu;
  lu.factor(db, eb, lam_solve, prm.pivot_floor);
  x.resize(len);
  fill_random_unit(x, seed);

  const auto orthogonalize = [&]() {
    for (const std::size_t prev : mgs) {
      double proj = 0.0;
      for (std::size_t i = 0; i < len; ++i) proj += z(row0 + i, prev) * x[i];
      for (std::size_t i = 0; i < len; ++i) x[i] -= proj * z(row0 + i, prev);
    }
  };

  bool have_solution = false;
  for (int iter = 0; iter < 5; ++iter) {
    lu.solve(x);
    const double pre_mgs = norm2(x);
    orthogonalize();
    const double nrm = norm2(x);
    if (!std::isfinite(nrm) || nrm == 0.0 || nrm <= 1.0e-2 * pre_mgs) {
      // Start vector was (nearly) inside the span of earlier cluster
      // members; retry from a fresh random direction.
      fill_random_unit(x, seed ^ (0xfeedfaceULL + 7ULL * (iter + 1)));
      have_solution = false;
      continue;
    }
    for (double& v : x) v /= nrm;
    have_solution = true;
    if (tridiag_residual_inf(db, eb, lam_true, x) <= prm.res_tol) break;
  }
  if (!have_solution) {
    // The loop ended right after a random reinjection: never hand back a
    // vector that is not a solve result.  One more guarded solve; the
    // clamped pivots make it well-defined for any shift.
    lu.solve(x);
    orthogonalize();
    const double nrm = norm2(x);
    if (std::isfinite(nrm) && nrm > 0.0) {
      for (double& v : x) v /= nrm;
    } else {
      fill_random_unit(x, seed ^ 0x5afe5afeULL);  // last-resort unit column
    }
  }
  for (std::size_t i = 0; i < len; ++i) z(row0 + i, col) = x[i];
}

}  // namespace

Matrix tridiagonal_eigenvectors(const std::vector<double>& d,
                                const std::vector<double>& e,
                                std::vector<double>& values,
                                std::size_t il) {
  const std::size_t n = d.size();
  const std::size_t m = values.size();
  TBMD_REQUIRE(e.size() == n, "eigenvectors: d/e size mismatch");
  TBMD_REQUIRE(m >= 1 && m <= n, "eigenvectors: bad eigenvalue count");
  TBMD_REQUIRE(std::is_sorted(values.begin(), values.end()),
               "eigenvectors: eigenvalues must be ascending");

  Matrix z(n, m, 0.0);
  if (n == 1) {
    z(0, 0) = 1.0;
    return z;
  }

  const SpectralBounds bounds = gershgorin_bounds(d, e);
  const double bnorm = std::max(bounds.scale(), 1.0e-30);
  const double ortol = 1.0e-3 * bnorm;  // cluster gap threshold (xSTEIN)
  InvitParams prm;
  prm.pivot_floor = kEps * bnorm;
  prm.res_tol = (16.0 + std::sqrt(static_cast<double>(n))) * kEps * bnorm;
  prm.sep = 10.0 * kEps * bnorm;  // in-cluster shift separation

  // Irreducible blocks: split where the subdiagonal is negligible, so that
  // eigenvectors stay confined to their own block and uncoupled subsystems
  // stay uncoupled (the xSTEIN convention).  Without the split, degenerate
  // levels shared by several blocks would come out as arbitrary cross-block
  // mixtures.
  std::vector<std::size_t> blocks{0};
  for (std::size_t i = 1; i < n; ++i) {
    if (std::fabs(e[i]) <= kEps * (std::fabs(d[i - 1]) + std::fabs(d[i]))) {
      blocks.push_back(i);
    }
  }
  blocks.push_back(n);
  const bool single_block = blocks.size() == 2;

  // Cluster boundaries: a new cluster starts at each gap > ortol.
  std::vector<std::size_t> starts{0};
  for (std::size_t j = 1; j < m; ++j) {
    if (values[j] - values[j - 1] > ortol) starts.push_back(j);
  }
  starts.push_back(m);
  const std::size_t nclusters = starts.size() - 1;

  // Degenerate cluster spread over several irreducible blocks: recover the
  // per-block multiplicities by block-local Sturm counts, bisect each
  // member inside its own block, and inverse-iterate there.  Returns false
  // (fall back to the whole-matrix path) for single-block clusters or when
  // the bookkeeping is inconsistent.
  const auto cluster_by_blocks = [&](std::size_t a, std::size_t b) -> bool {
    const std::size_t csize = b - a;
    const double lo = values[a] - 0.5 * ortol;
    const double hi = values[b - 1] + 0.5 * ortol;

    struct BlockHit {
      std::size_t block_index;  // into `blocks`
      std::size_t first_local;  // index of the first member inside the block
      std::size_t count;
    };
    std::vector<BlockHit> hits;
    std::size_t below_total = 0;  // eigenvalues of the whole T below `lo`
    for (std::size_t bb = 0; bb + 1 < blocks.size(); ++bb) {
      const std::size_t c_lo =
          sturm_count(d, e, blocks[bb], blocks[bb + 1], lo);
      const std::size_t c_hi =
          sturm_count(d, e, blocks[bb], blocks[bb + 1], hi);
      below_total += c_lo;
      if (c_hi > c_lo) hits.push_back({bb, c_lo, c_hi - c_lo});
    }
    if (hits.size() <= 1) return false;

    // A partial-spectrum request may start mid-cluster: line the requested
    // global indices up against the cluster's full membership.
    const std::size_t first_requested = il + a;
    if (first_requested < below_total) return false;
    const std::size_t offset = first_requested - below_total;

    struct Member {
      double lam = 0.0;
      std::size_t hit = 0;  // into `hits`
    };
    std::vector<Member> members;
    std::vector<std::vector<double>> dbs(hits.size()), ebs(hits.size());
    for (std::size_t h = 0; h < hits.size(); ++h) {
      const std::size_t s = blocks[hits[h].block_index];
      const std::size_t t = blocks[hits[h].block_index + 1];
      dbs[h].assign(d.begin() + static_cast<std::ptrdiff_t>(s),
                    d.begin() + static_cast<std::ptrdiff_t>(t));
      ebs[h].assign(t - s, 0.0);
      for (std::size_t i = s + 1; i < t; ++i) ebs[h][i - s] = e[i];
      for (std::size_t k = 0; k < hits[h].count; ++k) {
        members.push_back(
            {tridiagonal_eigenvalue(dbs[h], ebs[h], hits[h].first_local + k),
             h});
      }
    }
    std::stable_sort(members.begin(), members.end(),
                     [](const Member& p, const Member& q) {
                       return p.lam < q.lam;
                     });
    if (offset + csize > members.size()) return false;

    // Inverse-iterate each requested member inside its block; MGS only
    // among same-block siblings (cross-block columns are orthogonal by
    // construction, their supports are disjoint).
    std::vector<std::vector<std::size_t>> done(hits.size());
    std::vector<double> lam_prev(hits.size(), 0.0);
    std::vector<char> has_prev(hits.size(), 0);
    std::vector<double> x;
    for (std::size_t j = 0; j < csize; ++j) {
      const Member& mem = members[offset + j];
      const std::size_t h = mem.hit;
      double lam = mem.lam;
      if (has_prev[h]) lam = std::max(lam, lam_prev[h] + prm.sep);
      lam_prev[h] = lam;
      has_prev[h] = 1;
      const std::size_t col = a + j;
      invit_column(dbs[h], ebs[h], lam, mem.lam, prm,
                   0x7bd5c0de + 0x9e3779b9ULL * col, z,
                   blocks[hits[h].block_index], col, done[h], x);
      done[h].push_back(col);
    }
    return true;
  };

  [[maybe_unused]] const bool par =
      par::max_threads() > 1 && par::worth_parallelizing(m, 32 * n);
#pragma omp parallel for schedule(dynamic, 1) if (par)
  for (std::size_t cl = 0; cl < nclusters; ++cl) {
    const std::size_t a = starts[cl];
    const std::size_t b = starts[cl + 1];
    const bool isolated = (b - a) == 1;

    if (!isolated && !single_block && cluster_by_blocks(a, b)) continue;

    std::vector<double> x;
    std::vector<std::size_t> mgs;
    double lam_prev = 0.0;
    for (std::size_t idx = a; idx < b; ++idx) {
      double lam = values[idx];
      if (idx > a) lam = std::max(lam, lam_prev + prm.sep);
      lam_prev = lam;

      invit_column(d, e, lam, values[idx], prm,
                   0x7bd5c0de + 0x9e3779b9ULL * idx, z, 0, idx, mgs, x);
      if (!isolated) mgs.push_back(idx);

      if (isolated) {
        // One Rayleigh-quotient polish: re-solve at the quotient shift and
        // report the refined eigenvalue.  This drives the residual from
        // O(eps ||T||) down to the gap-limited optimum, which matters for
        // graded matrices whose small eigenvalues sit far below ||T||.
        const double rho = rayleigh_quotient(d, e, x);
        if (std::fabs(rho - values[idx]) <= ortol) {
          TridiagLu lu;
          lu.factor(d, e, rho, prm.pivot_floor);
          std::vector<double> xs = x;
          lu.solve(xs);
          const double nrm = norm2(xs);
          if (std::isfinite(nrm) && nrm > 0.0) {
            for (double& v : xs) v /= nrm;
            // Adopt the refined eigenvalue only when it strictly lowers the
            // residual: exactly representable eigenvalues (e.g. a diagonal
            // matrix) then stay bit-exact instead of picking up noise.
            const double rho2 = rayleigh_quotient(d, e, xs);
            if (std::fabs(rho2 - values[idx]) <= ortol &&
                tridiag_residual_inf(d, e, rho2, xs) <
                    tridiag_residual_inf(d, e, values[idx], xs)) {
              values[idx] = rho2;
              for (std::size_t i = 0; i < n; ++i) z(i, idx) = xs[i];
            } else if (tridiag_residual_inf(d, e, values[idx], xs) <=
                       tridiag_residual_inf(d, e, values[idx], x)) {
              for (std::size_t i = 0; i < n; ++i) z(i, idx) = xs[i];
            }
          }
        }
      }
    }
  }
  return z;
}

namespace {

SymmetricEigenSolution sorted_solution(std::vector<double> values, Matrix z) {
  // Rayleigh refinement can nudge near-tied values out of order; restore the
  // ascending contract (and matching column order) when that happens.
  if (!std::is_sorted(values.begin(), values.end())) {
    const std::size_t m = values.size();
    std::vector<std::size_t> perm(m);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(), [&](std::size_t p, std::size_t q) {
      return values[p] < values[q];
    });
    std::vector<double> sorted_vals(m);
    Matrix sorted_z(z.rows(), m);
    for (std::size_t j = 0; j < m; ++j) {
      sorted_vals[j] = values[perm[j]];
      for (std::size_t i = 0; i < z.rows(); ++i) {
        sorted_z(i, j) = z(i, perm[j]);
      }
    }
    values = std::move(sorted_vals);
    z = std::move(sorted_z);
  }
  SymmetricEigenSolution out;
  out.values = std::move(values);
  out.vectors = std::move(z);
  return out;
}

}  // namespace

ReducedSpectrum reduce_spectrum(const Matrix& a) {
  ReducedSpectrum s;
  s.reduction = blocked_tridiagonalize(a);
  s.values = ql_eigenvalues(s.reduction.d, s.reduction.e);
  return s;
}

SymmetricEigenSolution window_eigenpairs(const ReducedSpectrum& s,
                                         std::size_t il, std::size_t iu) {
  TBMD_REQUIRE(il <= iu && iu < s.values.size(),
               "window_eigenpairs: bad index range");
  std::vector<double> values(
      s.values.begin() + static_cast<std::ptrdiff_t>(il),
      s.values.begin() + static_cast<std::ptrdiff_t>(iu) + 1);
  Matrix z = tridiagonal_eigenvectors(s.reduction.d, s.reduction.e, values, il);
  apply_q(s.reduction, z);
  return sorted_solution(std::move(values), std::move(z));
}

SymmetricEigenSolution eigh_range(const Matrix& a, std::size_t il,
                                  std::size_t iu) {
  TBMD_REQUIRE(a.rows() == a.cols(), "eigh_range: matrix must be square");
  TBMD_REQUIRE(il <= iu && iu < a.rows(), "eigh_range: bad index range");
  return window_eigenpairs(reduce_spectrum(a), il, iu);
}

}  // namespace tbmd::linalg
