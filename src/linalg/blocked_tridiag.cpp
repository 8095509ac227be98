#include "src/linalg/blocked_tridiag.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

using detail::v4df;

/// Minimum trailing dimension before symv forks threads.
constexpr std::size_t kParallelCutoff = 256;

/// Rows per symv partial.  Chunks sit at absolute multiples of kSymvChunk
/// (the first one clipped at `lo`), so the chunk set -- and with it every
/// summation order -- depends on (n, lo) only, never on the thread count.
/// The static round-robin over absolute chunk indices also keeps each row
/// on the same thread (and in its cache) across the reduction's calls.
constexpr std::size_t kSymvChunk = 32;

/// x . y over [lo, hi) in eight lanes (two four-lane accumulators, which
/// also hides the FMA latency a serial chain would expose) reduced in a
/// fixed order.
double lane_dot(const double* x, const double* y, std::size_t lo,
                std::size_t hi) {
  v4df s0 = {0.0, 0.0, 0.0, 0.0};
  v4df s1 = s0;
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    v4df x0, x1, y0, y1;
    __builtin_memcpy(&x0, x + i, sizeof x0);
    __builtin_memcpy(&x1, x + i + 4, sizeof x1);
    __builtin_memcpy(&y0, y + i, sizeof y0);
    __builtin_memcpy(&y1, y + i + 4, sizeof y1);
    s0 += x0 * y0;
    s1 += x1 * y1;
  }
  const v4df s = s0 + s1;
  double t = (s[0] + s[1]) + (s[2] + s[3]);
  for (; i < hi; ++i) t += x[i] * y[i];
  return t;
}

/// y[i] -= sum_c (v_c[i] * a[c] + w_c[i] * b[c]) over i in [lo, hi) for
/// the nc panel rows v_c = v + c * ld and w_c = w + c * ld: the pending
/// rank-2 panel updates of one vector, eight entries at a time with the
/// c-sum held in registers (one pass over y instead of one per column).
void sub_panel_updates(const double* v, const double* w, std::size_t ld,
                       std::size_t nc, const double* a, const double* b,
                       double* y, std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    v4df y0, y1;
    __builtin_memcpy(&y0, y + i, sizeof y0);
    __builtin_memcpy(&y1, y + i + 4, sizeof y1);
    for (std::size_t c = 0; c < nc; ++c) {
      v4df v0, v1, w0, w1;
      __builtin_memcpy(&v0, v + c * ld + i, sizeof v0);
      __builtin_memcpy(&v1, v + c * ld + i + 4, sizeof v1);
      __builtin_memcpy(&w0, w + c * ld + i, sizeof w0);
      __builtin_memcpy(&w1, w + c * ld + i + 4, sizeof w1);
      y0 -= v0 * a[c] + w0 * b[c];
      y1 -= v1 * a[c] + w1 * b[c];
    }
    __builtin_memcpy(y + i, &y0, sizeof y0);
    __builtin_memcpy(y + i + 4, &y1, sizeof y1);
  }
  for (; i < hi; ++i) {
    double yi = y[i];
    for (std::size_t c = 0; c < nc; ++c) {
      yi -= v[c * ld + i] * a[c] + w[c * ld + i] * b[c];
    }
    y[i] = yi;
  }
}

/// The current panel's nc reflector rows v_c = v + c * ld and W rows
/// w_c = w + c * ld, whose rank-2 updates are still pending.
struct PanelRows {
  const double* v;
  const double* w;
  std::size_t ld;
  std::size_t nc;
};

/// y = tau * (A_j v) for the trailing submatrix rows/cols [lo, n), where
/// A_j = A - V W^T - W V^T folds the panel's pending updates into the
/// stored matrix A, of which only the lower triangle is read.
///
/// One parallel region does all of it.  The 2 nc panel dots (w_c . v into
/// dots[c], v_c . v into dots[nc + c]) are an `omp for`, each dot whole on
/// one thread.  The symv streams each row once (every stored element is
/// used for both its (i,j) and (j,i) role), two rows per sweep so the
/// partial y and v are loaded once per row pair.  Each row chunk sums into
/// its own partial vector, four lanes at a time in a fixed lane order.  The
/// reduction then adds the partials in chunk order and applies the panel
/// corrections and the tau scaling to the chunk's own rows.  `v` and `y`
/// are full-length buffers; entries outside [lo, n) are ignored / left
/// untouched.  `dots` (2 nc entries) and `partials` are workspace.
void panel_symv(const Matrix& a, std::size_t lo, const double* v, double tau,
                const PanelRows& panel, double* dots, double* y,
                AlignedVector& partials) {
  const std::size_t n = a.rows();
  const std::size_t len = n - lo;
  const std::size_t first = lo / kSymvChunk;
  const std::size_t chunks = (n + kSymvChunk - 1) / kSymvChunk;
  // Chunk c's partial covers y[lo, end of chunk c), at (c - first) * len.
  partials.resize((chunks - first) * len);
  const double* x = v + lo;
  [[maybe_unused]] const bool par =
      len >= kParallelCutoff && par::max_threads() > 1;
#pragma omp parallel if (par)
  {
#pragma omp for schedule(static) nowait
    for (std::size_t q = 0; q < 2 * panel.nc; ++q) {
      const double* row = q < panel.nc ? panel.w + q * panel.ld
                                       : panel.v + (q - panel.nc) * panel.ld;
      dots[q] = lane_dot(row, v, lo, n);
    }
#pragma omp for schedule(static, 1)
    for (std::size_t c = 0; c < chunks; ++c) {
      if (c < first) continue;
      const std::size_t r0 = std::max(lo, c * kSymvChunk);
      const std::size_t r1 = std::min(n, (c + 1) * kSymvChunk);
      double* yc = partials.data() + (c - first) * len;  // yc[k - lo]
      std::fill(yc, yc + (r1 - lo), 0.0);
      std::size_t i = r0;
      for (; i + 1 < r1; i += 2) {
        // Rows i and i+1 over their shared columns [lo, i), then row i+1's
        // extra column i, then both diagonals.
        const double* a0 = a.row(i) + lo;
        const double* a1 = a.row(i + 1) + lo;
        const double x0 = v[i];
        const double x1 = v[i + 1];
        const std::size_t m = i - lo;
        v4df s0 = {0.0, 0.0, 0.0, 0.0};
        v4df s1 = s0;
        std::size_t k = 0;
        for (; k + 4 <= m; k += 4) {
          v4df r0k, r1k, xk, yk;
          __builtin_memcpy(&r0k, a0 + k, sizeof r0k);
          __builtin_memcpy(&r1k, a1 + k, sizeof r1k);
          __builtin_memcpy(&xk, x + k, sizeof xk);
          __builtin_memcpy(&yk, yc + k, sizeof yk);
          s0 += r0k * xk;
          s1 += r1k * xk;
          yk += r0k * x0;
          yk += r1k * x1;
          __builtin_memcpy(yc + k, &yk, sizeof yk);
        }
        double t0 = (s0[0] + s0[1]) + (s0[2] + s0[3]);
        double t1 = (s1[0] + s1[1]) + (s1[2] + s1[3]);
        for (; k < m; ++k) {
          t0 += a0[k] * x[k];
          t1 += a1[k] * x[k];
          yc[k] += a0[k] * x0;
          yc[k] += a1[k] * x1;
        }
        t1 += a1[m] * x0;
        yc[m] += a0[m] * x0 + t0;
        yc[m] += a1[m] * x1;
        yc[m + 1] += a1[m + 1] * x1 + t1;
      }
      if (i < r1) {
        const double* a0 = a.row(i) + lo;
        const double x0 = v[i];
        const std::size_t m = i - lo;
        v4df s0 = {0.0, 0.0, 0.0, 0.0};
        std::size_t k = 0;
        for (; k + 4 <= m; k += 4) {
          v4df r0k, xk, yk;
          __builtin_memcpy(&r0k, a0 + k, sizeof r0k);
          __builtin_memcpy(&xk, x + k, sizeof xk);
          __builtin_memcpy(&yk, yc + k, sizeof yk);
          s0 += r0k * xk;
          yk += r0k * x0;
          __builtin_memcpy(yc + k, &yk, sizeof yk);
        }
        double t0 = (s0[0] + s0[1]) + (s0[2] + s0[3]);
        for (; k < m; ++k) {
          t0 += a0[k] * x[k];
          yc[k] += a0[k] * x0;
        }
        yc[m] += a0[m] * x0 + t0;
      }
    }
#pragma omp for schedule(static, 1)
    for (std::size_t c = 0; c < chunks; ++c) {
      if (c < first) continue;
      const std::size_t r0 = std::max(lo, c * kSymvChunk);
      const std::size_t r1 = std::min(n, (c + 1) * kSymvChunk);
      const double* pc = partials.data() + (c - first) * len;
      for (std::size_t k = r0; k < r1; ++k) y[k] = pc[k - lo];
      for (std::size_t later = c + 1; later < chunks; ++later) {
        const double* pl = partials.data() + (later - first) * len;
        for (std::size_t k = r0; k < r1; ++k) y[k] += pl[k - lo];
      }
      sub_panel_updates(panel.v, panel.w, panel.ld, panel.nc, dots,
                        dots + panel.nc, y, r0, r1);
      for (std::size_t k = r0; k < r1; ++k) y[k] *= tau;
    }
  }
}

}  // namespace

TridiagFactorization blocked_tridiagonalize(const Matrix& a,
                                            std::size_t block) {
  const std::size_t n = a.rows();
  TBMD_REQUIRE(n == a.cols(), "blocked_tridiagonalize: matrix must be square");
  TBMD_REQUIRE(block >= 1, "blocked_tridiagonalize: block must be >= 1");

  TridiagFactorization f;
  f.reflectors = a;
  f.tau.assign(n, 0.0);
  f.d.assign(n, 0.0);
  f.e.assign(n, 0.0);
  if (n == 0) return f;
  if (n == 1) {
    f.d[0] = a(0, 0);
    f.reflectors(0, 0) = 0.0;
    return f;
  }

  // The reduction reads and updates only the lower triangle of r; reflector
  // v_j goes into row j's strict upper part, so the current panel's V
  // (V(i, c) = r(p + c, i)) and W (wp(c, i)) are contiguous rows: every
  // per-column correction below is a unit-stride sweep and the trailing
  // update reads both panels in place.
  Matrix& r = f.reflectors;
  const std::size_t nrefl = n - 2;  // reflectors for columns 0 .. n-3
  const std::size_t nb = std::min<std::size_t>(block, std::max<std::size_t>(nrefl, 1));

  Matrix wp(nb, n, 0.0);
  std::vector<double> col(n, 0.0);  // column j of the trailing matrix
  std::vector<double> y(n, 0.0);    // symv result / scratch
  AlignedVector partials;           // symv workspace
  std::vector<double> coef(2 * nb);  // panel coefficients of one column

  for (std::size_t p = 0; p < nrefl; p += nb) {
    const std::size_t pw = std::min(nb, nrefl - p);

    for (std::size_t jj = 0; jj < pw; ++jj) {
      const std::size_t j = p + jj;

      // Column j (rows j..n-1) with the panel's pending rank-2 updates
      // applied: a(:, j) -= V W(j, :)^T + W V(j, :)^T.
      for (std::size_t i = j; i < n; ++i) col[i] = r(i, j);
      for (std::size_t c = 0; c < jj; ++c) {
        coef[c] = wp(c, j);
        coef[jj + c] = r(p + c, j);
      }
      sub_panel_updates(r.row(p), wp.data(), n, jj, coef.data(),
                        coef.data() + jj, col.data(), j, n);
      f.d[j] = col[j];

      // Generate the Householder reflector annihilating a(j+2:n, j).
      double* v = r.row(j);
      const double alpha = col[j + 1];
      const double sigma = lane_dot(col.data(), col.data(), j + 2, n);
      double scale = 1.0;
      if (sigma == 0.0) {
        f.e[j + 1] = alpha;
        f.tau[j] = 0.0;  // v = e1 is harmless since tau = 0 makes H = I
      } else {
        const double beta =
            (alpha >= 0.0) ? -std::sqrt(alpha * alpha + sigma)
                           : std::sqrt(alpha * alpha + sigma);
        f.tau[j] = (beta - alpha) / beta;
        scale = 1.0 / (alpha - beta);
        f.e[j + 1] = beta;
      }
      v[j + 1] = 1.0;
      for (std::size_t i = j + 2; i < n; ++i) v[i] = col[i] * scale;

      // W(:, jj) = tau * (A_j v - 0.5 tau (v^T A_j v) v), where A_j is the
      // trailing matrix with the panel's pending updates folded in through
      // the V/W correction terms (stored entries are pre-update).
      const double tau = f.tau[j];
      panel_symv(r, j + 1, v, tau, {r.row(p), wp.data(), n, jj}, coef.data(),
                 y.data(), partials);
      const double corr = -0.5 * tau * lane_dot(y.data(), v, j + 1, n);
      double* w = wp.row(jj);
      for (std::size_t i = j + 1; i < n; ++i) w[i] = y[i] + corr * v[i];
    }

    // Deferred symmetric rank-2k trailing update (the level-3 bulk):
    // A(q:, q:) -= V W^T + W V^T on the lower triangle, q = p + pw.
    const std::size_t q0 = p + pw;
    syr2k_lower(n - q0, pw, -1.0, {r.row(p) + q0, 1, n},
                {wp.data() + q0, 1, n}, r.row(q0) + q0, n);
  }

  f.d[n - 2] = r(n - 2, n - 2);
  f.d[n - 1] = r(n - 1, n - 1);
  f.e[n - 1] = r(n - 1, n - 2);
  f.e[0] = 0.0;
  // Zero the lower triangle, the diagonal and the last two rows, so each
  // block of reflector rows is an exact unit-upper-trapezoidal V^T for
  // apply_q's GEMMs.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t keep = i < nrefl ? i + 1 : n;
    std::fill(r.row(i), r.row(i) + keep, 0.0);
  }
  return f;
}

void apply_q(const TridiagFactorization& f, Matrix& z) {
  const std::size_t n = f.size();
  TBMD_REQUIRE(z.rows() == n, "apply_q: row count mismatch");
  if (n < 3 || z.cols() == 0) return;  // Q == I for n < 3

  const Matrix& r = f.reflectors;
  const std::size_t m = z.cols();
  const std::size_t nrefl = n - 2;
  constexpr std::size_t kNb = 32;
  const std::size_t nblocks = (nrefl + kNb - 1) / kNb;

  // Q = B_0 B_1 ... B_L with forward-columnwise blocks B = I - V T V^T.
  // T factor of every block (LARFT) from S = V^T V, whose entries are lane
  // dot products of the contiguous reflector rows:
  // T(c,c) = tau_c, T(0:c, c) = -tau_c T(0:c, 0:c) S(0:c, c).
  AlignedVector tfac(nblocks * kNb * kNb, 0.0);
  [[maybe_unused]] const bool par = par::max_threads() > 1 &&
                                    par::worth_parallelizing(n * m, 64);
#pragma omp parallel for schedule(dynamic) if (par)
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::size_t p = blk * kNb;
    const std::size_t pw = std::min(kNb, nrefl - p);
    double* t = tfac.data() + blk * kNb * kNb;
    double s[kNb];  // S(0:c, c)
    for (std::size_t c = 0; c < pw; ++c) {
      for (std::size_t b = 0; b < c; ++b) {
        s[b] = lane_dot(r.row(p + b), r.row(p + c), p + c + 1, n);
      }
      const double tau_c = f.tau[p + c];
      for (std::size_t b = 0; b < c; ++b) {
        double acc = 0.0;
        for (std::size_t k = b; k < c; ++k) acc += t[b * kNb + k] * s[k];
        t[b * kNb + c] = -tau_c * acc;
      }
      t[c * kNb + c] = tau_c;
    }
  }

  // Q Z applies the blocks in reverse order, and Q acts on every column of
  // Z independently: each fixed strip of kStrip columns runs through all
  // blocks on one thread (Z -= V (T (V^T Z)), three GEMMs per block), so
  // the strip stays in that thread's cache and blocks need no barrier.  A
  // single strip is left to the GEMMs' own threading.  V^T Z sums over
  // fixed kRowChunk-row chunks, which bounds the packed copy of V^T.
  constexpr std::size_t kStrip = 64;
  constexpr std::size_t kRowChunk = 256;
  const std::size_t strips = (m + kStrip - 1) / kStrip;
#pragma omp parallel if (par && strips > 1)
  {
    AlignedVector w1(kNb * kStrip), w2(kNb * kStrip);
#pragma omp for schedule(dynamic)
    for (std::size_t sj = 0; sj < strips; ++sj) {
      const std::size_t j0 = sj * kStrip;
      const std::size_t cols = std::min(kStrip, m - j0);
      for (std::size_t blk = nblocks; blk-- > 0;) {
        const std::size_t p = blk * kNb;
        const std::size_t pw = std::min(kNb, nrefl - p);
        const std::size_t len = n - p - 1;  // V spans rows p+1 .. n-1
        const StridedView vt{r.row(p) + p + 1, n, 1};  // V^T, row-major
        double* zb = z.row(p + 1) + j0;
        std::fill(w1.begin(), w1.end(), 0.0);
        for (std::size_t q0 = 0; q0 < len; q0 += kRowChunk) {
          gemm(pw, cols, std::min(kRowChunk, len - q0), 1.0,
               {vt.data + q0, n, 1}, {zb + q0 * m, m, 1}, w1.data(), kStrip);
        }
        std::fill(w2.begin(), w2.end(), 0.0);
        gemm(pw, cols, pw, 1.0, {tfac.data() + blk * kNb * kNb, kNb, 1},
             {w1.data(), kStrip, 1}, w2.data(), kStrip);
        gemm(len, cols, pw, -1.0, {vt.data, 1, n}, {w2.data(), kStrip, 1}, zb,
             m);
      }
    }
  }
}

}  // namespace tbmd::linalg
