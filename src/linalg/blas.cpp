#include "src/linalg/blas.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

/// Cache tile edge shared by every level-3 kernel.  64 doubles = 512 B per
/// row tile; a 64x64 tile of each operand fits comfortably in L1/L2.
constexpr std::size_t kTile = 64;

/// Block kernel, no-transpose x no-transpose: C += alpha * A * B over the
/// tile i in [i0,i1), k in [k0,k1), j in [j0,j1).  i-k-j order: the
/// innermost loop streams rows of B and C (axpy form).
inline void tile_gemm_nn(std::size_t i0, std::size_t i1, std::size_t k0,
                         std::size_t k1, std::size_t j0, std::size_t j1,
                         double alpha, const double* a, std::size_t lda,
                         const double* b, std::size_t ldb, double* c,
                         std::size_t ldc) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const double aik = alpha * arow[kk];
      if (aik == 0.0) continue;
      const double* brow = b + kk * ldb;
      for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
    }
  }
}

/// Block kernel, no-transpose x transpose: C += alpha * A * B^T over the
/// tile i in [i0,i1), j in [j0,j1), contraction index in [k0,k1).  Both
/// operand rows are contiguous, so the inner loops are plain dot products;
/// two j-columns per pass share the A-row loads.  When `lower` the j range
/// of each row is clipped to j <= i (the symmetric-kernel case).
inline void tile_gemm_nt(std::size_t i0, std::size_t i1, std::size_t j0,
                         std::size_t j1, std::size_t k0, std::size_t k1,
                         bool lower, double alpha, const double* a,
                         std::size_t lda, const double* b, std::size_t ldb,
                         double* c, std::size_t ldc) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* ai = a + i * lda;
    double* crow = c + i * ldc;
    const std::size_t jend = lower ? std::min(j1, i + 1) : j1;
    std::size_t j = j0;
    for (; j + 1 < jend; j += 2) {
      const double* bj0 = b + j * ldb;
      const double* bj1 = bj0 + ldb;
      double s0 = 0.0, s1 = 0.0;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        s0 += ai[kk] * bj0[kk];
        s1 += ai[kk] * bj1[kk];
      }
      crow[j] += alpha * s0;
      crow[j + 1] += alpha * s1;
    }
    for (; j < jend; ++j) {
      const double* bj = b + j * ldb;
      double s = 0.0;
      for (std::size_t kk = k0; kk < k1; ++kk) s += ai[kk] * bj[kk];
      crow[j] += alpha * s;
    }
  }
}

/// Fused rank-2 variant of tile_gemm_nt: C += alpha * (A * B^T + B * A^T)
/// over the tile, accumulating both products in one pass so the C tile is
/// read and written once (splitting into two NT passes doubles the C
/// traffic and measurably slows the tridiagonalization trailing update).
inline void tile_gemm_nt2(std::size_t i0, std::size_t i1, std::size_t j0,
                          std::size_t j1, std::size_t k0, std::size_t k1,
                          bool lower, double alpha, const double* a,
                          std::size_t lda, const double* b, std::size_t ldb,
                          double* c, std::size_t ldc) {
  for (std::size_t i = i0; i < i1; ++i) {
    const double* ai = a + i * lda;
    const double* bi = b + i * ldb;
    double* crow = c + i * ldc;
    const std::size_t jend = lower ? std::min(j1, i + 1) : j1;
    for (std::size_t j = j0; j < jend; ++j) {
      const double* aj = a + j * lda;
      const double* bj = b + j * ldb;
      double s = 0.0;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        s += ai[kk] * bj[kk] + bi[kk] * aj[kk];
      }
      crow[j] += alpha * s;
    }
  }
}

/// Unflatten a lower-triangle tile-pair index t into (ti, tj), tj <= ti,
/// with t = ti * (ti + 1) / 2 + tj.
inline void unflatten_tile_pair(std::size_t t, std::size_t& ti,
                                std::size_t& tj) {
  ti = static_cast<std::size_t>((std::sqrt(8.0 * static_cast<double>(t) + 1.0) - 1.0) / 2.0);
  while ((ti + 1) * (ti + 2) / 2 <= t) ++ti;   // guard against sqrt rounding
  while (ti * (ti + 1) / 2 > t) --ti;
  tj = t - ti * (ti + 1) / 2;
}

/// Shared driver of syrk_lower / syr2k_lower: walk lower-triangle tile
/// pairs in parallel and run the NT block kernel once (syrk) or twice with
/// swapped operands (syr2k) per k-slab.
template <bool Rank2>
void rank_k_lower(std::size_t n, std::size_t k, double alpha, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
  if (n == 0 || k == 0 || alpha == 0.0) return;
  const std::size_t nt = (n + kTile - 1) / kTile;
  const std::size_t npairs = nt * (nt + 1) / 2;
  [[maybe_unused]] const bool par = par::worth_parallelizing(n * n / 2, k);
#pragma omp parallel for schedule(dynamic) if (par)
  for (std::size_t t = 0; t < npairs; ++t) {
    std::size_t ti, tj;
    unflatten_tile_pair(t, ti, tj);
    const std::size_t i0 = ti * kTile, i1 = std::min(i0 + kTile, n);
    const std::size_t j0 = tj * kTile, j1 = std::min(j0 + kTile, n);
    const bool lower = ti == tj;  // diagonal tiles clip to j <= i
    for (std::size_t k0 = 0; k0 < k; k0 += kTile) {
      const std::size_t k1 = std::min(k0 + kTile, k);
      if constexpr (Rank2) {
        tile_gemm_nt2(i0, i1, j0, j1, k0, k1, lower, alpha, a, lda, b, ldb, c,
                      ldc);
      } else {
        tile_gemm_nt(i0, i1, j0, j1, k0, k1, lower, alpha, a, lda, b, ldb, c,
                     ldc);
      }
    }
  }
}

/// Scale the lower triangle of C by beta (the symmetric kernels never read
/// the upper triangle; it is overwritten by the final mirror).
void scale_lower(double beta, Matrix& c) {
  const std::size_t n = c.rows();
  if (beta == 1.0) return;
#pragma omp parallel for schedule(static) if (n >= 256)
  for (std::size_t i = 0; i < n; ++i) {
    double* row = c.row(i);
    if (beta == 0.0) {
      for (std::size_t j = 0; j <= i; ++j) row[j] = 0.0;
    } else {
      for (std::size_t j = 0; j <= i; ++j) row[j] *= beta;
    }
  }
}

/// Copy the lower triangle into the upper one so C is exactly symmetric.
void mirror_lower(Matrix& c) {
  const std::size_t n = c.rows();
#pragma omp parallel for schedule(static) if (n >= 256)
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = c.row(i);
    for (std::size_t j = 0; j < i; ++j) c(j, i) = row[j];
  }
}

}  // namespace

void gemm_accumulate(double alpha, const Matrix& a, const Matrix& b,
                     Matrix& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  TBMD_REQUIRE(b.rows() == k, "gemm: inner dimensions differ");
  TBMD_REQUIRE(c.rows() == m && c.cols() == n, "gemm: C has wrong shape");

#pragma omp parallel for schedule(static) if (m * n * k > 100000)
  for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, m);
    for (std::size_t k0 = 0; k0 < k; k0 += kTile) {
      const std::size_t k1 = std::min(k0 + kTile, k);
      for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
        const std::size_t j1 = std::min(j0 + kTile, n);
        tile_gemm_nn(i0, i1, k0, k1, j0, j1, alpha, a.data(), k, b.data(), n,
                     c.data(), n);
      }
    }
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  gemm_accumulate(1.0, a, b, c);
  return c;
}

void syrk_lower(std::size_t n, std::size_t k, double alpha, const double* a,
                std::size_t lda, double* c, std::size_t ldc) {
  rank_k_lower<false>(n, k, alpha, a, lda, a, lda, c, ldc);
}

void syr2k_lower(std::size_t n, std::size_t k, double alpha, const double* a,
                 std::size_t lda, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc) {
  rank_k_lower<true>(n, k, alpha, a, lda, b, ldb, c, ldc);
}

namespace {

/// Compile-time-sized square tile product C += op(A) * op(B) with k-major
/// accumulation per output row (an N-wide accumulator the compiler keeps in
/// registers).  Instantiated at N == 9 for the spd orbital block; the sp
/// block keeps its hand-unrolled kernels below so that path's code is
/// byte-for-byte what it was before the variable-block refactor.
template <std::size_t N>
inline void micro_add_square(bool transpose_a, bool transpose_b,
                             const double* a, const double* b, double* c) {
  for (std::size_t i = 0; i < N; ++i) {
    double acc[N] = {};
    for (std::size_t k = 0; k < N; ++k) {
      const double aik = transpose_a ? a[N * k + i] : a[N * i + k];
      const double* bk = transpose_b ? b + k : b + N * k;
      const std::size_t bstep = transpose_b ? N : 1;
      for (std::size_t j = 0; j < N; ++j) acc[j] += aik * bk[bstep * j];
    }
    double* ci = c + N * i;
    for (std::size_t j = 0; j < N; ++j) ci[j] += acc[j];
  }
}

}  // namespace

void gemm_micro_add(std::size_t bs, const double* a, const double* b,
                    double* c) {
  // bs == 4 tested first: the legacy sp models make it by far the hottest
  // tile edge, so it pays exactly one predicted branch.
  if (bs == 4) {
    // Fully unrolled 4x4x4: each output row is accumulated in four scalars
    // (registers), reading each A entry once and streaming B's rows.
    for (std::size_t i = 0; i < 4; ++i) {
      const double* ai = a + 4 * i;
      double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
      for (std::size_t k = 0; k < 4; ++k) {
        const double aik = ai[k];
        const double* bk = b + 4 * k;
        c0 += aik * bk[0];
        c1 += aik * bk[1];
        c2 += aik * bk[2];
        c3 += aik * bk[3];
      }
      double* ci = c + 4 * i;
      ci[0] += c0;
      ci[1] += c1;
      ci[2] += c2;
      ci[3] += c3;
    }
    return;
  }
  if (bs == 1) {
    c[0] += a[0] * b[0];
    return;
  }
  if (bs == 9) {
    micro_add_square<9>(false, false, a, b, c);
    return;
  }
  for (std::size_t i = 0; i < bs; ++i) {
    const double* ai = a + bs * i;
    double* ci = c + bs * i;
    for (std::size_t k = 0; k < bs; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b + bs * k;
      for (std::size_t j = 0; j < bs; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_micro_add_t(std::size_t bs, bool transpose_a, bool transpose_b,
                      const double* a, const double* b, double* c) {
  if (!transpose_a && !transpose_b) {
    gemm_micro_add(bs, a, b, c);
    return;
  }
  if (bs == 4) {
    // Unrolled like the nn fast path: four C-row scalars in registers,
    // k-major accumulation.  The transposed operand is read with stride 4
    // (column walk of the stored row-major tile).
    if (transpose_a && !transpose_b) {
      for (std::size_t i = 0; i < 4; ++i) {
        const double* ai = a + i;  // column i of A == row i of A^T
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          const double aik = ai[4 * k];
          const double* bk = b + 4 * k;
          c0 += aik * bk[0];
          c1 += aik * bk[1];
          c2 += aik * bk[2];
          c3 += aik * bk[3];
        }
        double* ci = c + 4 * i;
        ci[0] += c0;
        ci[1] += c1;
        ci[2] += c2;
        ci[3] += c3;
      }
    } else if (!transpose_a && transpose_b) {
      for (std::size_t i = 0; i < 4; ++i) {
        const double* ai = a + 4 * i;
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          const double aik = ai[k];
          const double* bk = b + k;  // column k of B == row k of B^T
          c0 += aik * bk[0];
          c1 += aik * bk[4];
          c2 += aik * bk[8];
          c3 += aik * bk[12];
        }
        double* ci = c + 4 * i;
        ci[0] += c0;
        ci[1] += c1;
        ci[2] += c2;
        ci[3] += c3;
      }
    } else {
      for (std::size_t i = 0; i < 4; ++i) {
        const double* ai = a + i;
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          const double aik = ai[4 * k];
          const double* bk = b + k;
          c0 += aik * bk[0];
          c1 += aik * bk[4];
          c2 += aik * bk[8];
          c3 += aik * bk[12];
        }
        double* ci = c + 4 * i;
        ci[0] += c0;
        ci[1] += c1;
        ci[2] += c2;
        ci[3] += c3;
      }
    }
    return;
  }
  if (bs == 1) {
    c[0] += a[0] * b[0];  // a 1 x 1 tile is its own transpose
    return;
  }
  if (bs == 9) {
    micro_add_square<9>(transpose_a, transpose_b, a, b, c);
    return;
  }
  const auto at = [&](std::size_t i, std::size_t k) {
    return transpose_a ? a[bs * k + i] : a[bs * i + k];
  };
  const auto bt = [&](std::size_t k, std::size_t j) {
    return transpose_b ? b[bs * j + k] : b[bs * k + j];
  };
  for (std::size_t i = 0; i < bs; ++i) {
    double* ci = c + bs * i;
    for (std::size_t j = 0; j < bs; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < bs; ++k) s += at(i, k) * bt(k, j);
      ci[j] += s;
    }
  }
}

void gemm_micro_add_rect(std::size_t m, std::size_t k, std::size_t n,
                         bool transpose_a, bool transpose_b, const double* a,
                         const double* b, double* c) {
  if (m == k && k == n) {
    gemm_micro_add_t(m, transpose_a, transpose_b, a, b, c);
    return;
  }
  // Generic rectangular fallback.  The stored tile of a transposed operand
  // has the swapped shape, so op(A)(i, q) walks it with the strides below.
  const std::size_t a_row = transpose_a ? 1 : k;
  const std::size_t a_col = transpose_a ? m : 1;
  const std::size_t b_row = transpose_b ? 1 : n;
  const std::size_t b_col = transpose_b ? k : 1;
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + a_row * i;
    double* ci = c + n * i;
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b + b_col * j;
      double s = 0.0;
      for (std::size_t q = 0; q < k; ++q) {
        s += ai[a_col * q] * bj[b_row * q];
      }
      ci[j] += s;
    }
  }
}

double tile_norm2_rect(std::size_t m, std::size_t n, const double* a) {
  double s = 0.0;
  for (std::size_t q = 0; q < m * n; ++q) s += a[q] * a[q];
  return s;
}

void syrk(double alpha, const Matrix& a, double beta, Matrix& c) {
  const std::size_t n = a.rows();
  TBMD_REQUIRE(c.rows() == n && c.cols() == n, "syrk: C must be n x n");
  scale_lower(beta, c);
  syrk_lower(n, a.cols(), alpha, a.data(), a.cols(), c.data(), n);
  mirror_lower(c);
}

void syr2k(double alpha, const Matrix& a, const Matrix& b, double beta,
           Matrix& c) {
  const std::size_t n = a.rows();
  TBMD_REQUIRE(b.rows() == n && b.cols() == a.cols(),
               "syr2k: A and B must have the same shape");
  TBMD_REQUIRE(c.rows() == n && c.cols() == n, "syr2k: C must be n x n");
  scale_lower(beta, c);
  syr2k_lower(n, a.cols(), alpha, a.data(), a.cols(), b.data(), b.cols(),
              c.data(), n);
  mirror_lower(c);
}

std::vector<double> matvec(const Matrix& a, const std::vector<double>& x) {
  TBMD_REQUIRE(a.cols() == x.size(), "matvec: shape mismatch");
  std::vector<double> y(a.rows(), 0.0);
#pragma omp parallel for schedule(static) if (a.rows() * a.cols() > 100000)
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  return y;
}

std::vector<double> matvec_transposed(const Matrix& a,
                                      const std::vector<double>& x) {
  TBMD_REQUIRE(a.rows() == x.size(), "matvec_transposed: shape mismatch");
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    const double xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * arow[j];
  }
  return y;
}

double dot(const std::vector<double>& x, const std::vector<double>& y) {
  TBMD_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  TBMD_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double norm2(const std::vector<double>& x) { return std::sqrt(dot(x, x)); }

}  // namespace tbmd::linalg
