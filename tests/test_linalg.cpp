// Tests for src/linalg: Matrix, BLAS-like kernels and tridiagonal solvers,
// plus the Cholesky and least-squares helpers of bench/least_squares.hpp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "bench/least_squares.hpp"
#include "src/linalg/blas.hpp"
#include "src/linalg/matrix.hpp"
#include "src/linalg/tridiagonal.hpp"
#include "src/util/error.hpp"
#include "src/util/random.hpp"

namespace tbmd::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

std::vector<double> naive_matvec(const Matrix& a,
                                 const std::vector<double>& x) {
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) y[i] += a(i, j) * x[j];
  }
  return y;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(trace(i3), 3.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i3(2, 2), 1.0);
}

TEST(Matrix, CheckedAccessThrows) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), Error);
  EXPECT_THROW((void)m.at(0, 5), Error);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a(2, 2, 1.0), b(2, 2, 2.0);
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 3.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 1.0);
  const Matrix scaled = a * 4.0;
  EXPECT_DOUBLE_EQ(scaled(0, 1), 4.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, Error);
}

TEST(Matrix, StorageStartsOnACacheLine) {
  for (const std::size_t n : {1u, 3u, 17u, 129u, 200u, 768u}) {
    const Matrix m(n, n + 1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u) << n;
  }
}

TEST(Matrix, ReleasedLargeBlockIsHandedBack) {
  // 256 x 256 doubles = 512 KiB: recycled, so an MD loop's per-step
  // matrices reuse resident pages instead of faulting fresh ones in.
  const double* first = nullptr;
  {
    const Matrix a(256, 256, 1.0);
    first = a.data();
  }
  const Matrix b(256, 256, 2.0);
  EXPECT_EQ(b.data(), first);
  EXPECT_EQ(b(255, 255), 2.0);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = random_matrix(4, 7, 1);
  const Matrix att = transpose(transpose(a));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_DOUBLE_EQ(att(i, j), a(i, j));
    }
  }
}

TEST(Matrix, SymmetryHelpers) {
  Matrix a = random_matrix(5, 5, 2);
  EXPECT_GT(symmetry_defect(a), 0.0);
  symmetrize(a);
  EXPECT_NEAR(symmetry_defect(a), 0.0, 1e-15);
}

TEST(Matrix, TraceOfProductMatchesExplicitProduct) {
  const Matrix a = random_symmetric(6, 3);
  const Matrix b = random_symmetric(6, 4);
  const Matrix ab = matmul(a, b);
  EXPECT_NEAR(trace_of_product(a, b), trace(ab), 1e-12);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(max_abs(a), 4.0);
}

// --- GEMM correctness against the naive triple loop -------------------

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaiveTripleLoop) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 10 + m);
  const Matrix b = random_matrix(k, n, 20 + n);
  const Matrix c1 = matmul(a, b);
  const Matrix c2 = naive_matmul(a, b);
  EXPECT_LT(max_abs(c1 - c2), 1e-11);
}

TEST_P(GemmSizes, StridedViewsUpdateOnlyTheirBlock) {
  // The raw kernel on sub-blocks whose leading dimensions are not multiples
  // of the register block: A read through a transposed view, B through a
  // transposed view (packed strips) and C an interior block of a larger
  // matrix, whose surrounding entries must stay untouched.
  const auto [m, k, n] = GetParam();
  const std::size_t mu = m, ku = k, nu = n;
  const Matrix a = random_matrix(mu, ku, 30 + mu);
  const Matrix b = random_matrix(ku, nu, 40 + nu);
  const Matrix at = transpose(a);
  const Matrix bt = transpose(b);
  Matrix big = random_matrix(mu + 5, nu + 3, 50);
  const Matrix big0 = big;
  const std::size_t ldc = nu + 3;
  gemm(mu, nu, ku, -0.5, {at.data(), 1, mu}, {bt.data(), 1, ku},
       big.row(2) + 1, ldc);
  const Matrix expect = naive_matmul(a, b);
  for (std::size_t i = 0; i < mu + 5; ++i) {
    for (std::size_t j = 0; j < nu + 3; ++j) {
      const bool inside = i >= 2 && i < mu + 2 && j >= 1 && j < nu + 1;
      if (inside) {
        EXPECT_NEAR(big(i, j), big0(i, j) - 0.5 * expect(i - 2, j - 1), 1e-11);
      } else {
        EXPECT_EQ(big(i, j), big0(i, j)) << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(16, 16, 16), std::make_tuple(65, 64, 63),
                      std::make_tuple(70, 129, 40),
                      std::make_tuple(128, 128, 128),
                      std::make_tuple(7, 1, 9), std::make_tuple(9, 3, 7),
                      std::make_tuple(129, 7, 3), std::make_tuple(3, 129, 9),
                      std::make_tuple(100, 9, 129),
                      std::make_tuple(1, 129, 1)));

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW((void)matmul(a, b), Error);
}

// --- symmetric rank-k updates ------------------------------------------

class SyrkSizes : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SyrkSizes, MatchesExplicitProductAndIsExactlySymmetric) {
  const auto [n, k] = GetParam();
  const Matrix a = random_matrix(n, k, 50 + static_cast<std::uint64_t>(n));
  Matrix c = random_matrix(n, n, 51);  // garbage: beta = 0 must overwrite
  syrk(1.0, a, 0.0, c);
  const Matrix expect = naive_matmul(a, transpose(a));
  EXPECT_LT(max_abs(c - expect), 1e-11);
  EXPECT_DOUBLE_EQ(symmetry_defect(c), 0.0);
}

TEST_P(SyrkSizes, TransposedViewIsReadInPlaceWithTheSameBits) {
  // A stored as its k x n transpose, the layout density_matrix hands over:
  // read in place, each entry is still the same FMA chain over k.
  const auto [n, k] = GetParam();
  const Matrix a = random_matrix(n, k, 50 + static_cast<std::uint64_t>(n));
  const Matrix at = transpose(a);
  Matrix packed(n, n), in_place(n, n);
  syrk(1.0, a, 0.0, packed);
  syrk(1.0, {at.data(), 1, at.cols()}, k, 0.0, in_place);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) EXPECT_EQ(in_place(i, j), packed(i, j));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkSizes,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(5, 3),
                      std::make_tuple(64, 64), std::make_tuple(70, 33),
                      std::make_tuple(63, 130), std::make_tuple(129, 96),
                      std::make_tuple(7, 1), std::make_tuple(9, 3),
                      std::make_tuple(3, 7), std::make_tuple(129, 9),
                      std::make_tuple(1, 129)));

TEST(Syrk, BetaScalesExistingSymmetricC) {
  const Matrix a = random_matrix(40, 17, 60);
  const Matrix c0 = random_symmetric(40, 61);
  Matrix c = c0;
  syrk(0.5, a, 2.0, c);
  const Matrix expect = naive_matmul(a, transpose(a));
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * c0(i, j) + 0.5 * expect(i, j), 1e-12);
    }
  }
}

TEST(Syrk, ShapeMismatchThrows) {
  const Matrix a(6, 3);
  Matrix c(5, 5);
  EXPECT_THROW(syrk(1.0, a, 0.0, c), Error);
}

TEST(Syr2kLower, UpdatesTrailingSubmatrixInPlace) {
  // The blocked_tridiag use case: update the lower triangle of a trailing
  // q0-offset submatrix in place, with V and W read both as row-major
  // blocks and as column-contiguous panels (the tridiagonalization's
  // layout), at leading dimensions that are not multiples of the block.
  struct Shape {
    std::size_t n, q0, k;
  };
  for (const Shape sh : {Shape{20, 7, 5}, Shape{9, 0, 1}, Shape{17, 3, 3},
                         Shape{40, 1, 7}, Shape{150, 21, 9},
                         Shape{140, 11, 129}}) {
    const std::size_t n = sh.n, q0 = sh.q0, k = sh.k, t = n - q0;
    const Matrix v = random_matrix(n, k, 81 + n);
    const Matrix w = random_matrix(n, k, 82 + n);
    const Matrix vt = transpose(v);  // k x n: V's columns contiguous
    const Matrix wt = transpose(w);
    for (const bool panels : {false, true}) {
      Matrix c = random_matrix(n, n, 80 + n);
      const Matrix c0 = c;
      if (panels) {
        syr2k_lower(t, k, -1.0, {vt.data() + q0, 1, n}, {wt.data() + q0, 1, n},
                    c.row(q0) + q0, n);
      } else {
        syr2k_lower(t, k, -1.0, {v.row(q0), k, 1}, {w.row(q0), k, 1},
                    c.row(q0) + q0, n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i >= q0 && j >= q0 && j <= i) {
            double s = 0.0;
            for (std::size_t cc = 0; cc < k; ++cc) {
              s += v(i, cc) * w(j, cc) + w(i, cc) * v(j, cc);
            }
            EXPECT_NEAR(c(i, j), c0(i, j) - s, 1e-12)
                << n << "/" << k << " " << i << "," << j;
          } else {
            // Rows above, columns left of the trailing block and its strict
            // upper triangle are untouched.
            EXPECT_EQ(c(i, j), c0(i, j))
                << n << "/" << k << " " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(Gemm, AccumulateAddsScaledProduct) {
  const Matrix a = random_matrix(8, 8, 31);
  const Matrix b = random_matrix(8, 8, 32);
  Matrix c(8, 8, 1.0);
  gemm_accumulate(2.0, a, b, c);
  const Matrix expect = naive_matmul(a, b);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c(i, j), 1.0 + 2.0 * expect(i, j), 1e-12);
    }
  }
}

TEST(MatVec, TransposedMatchesExplicitTranspose) {
  const Matrix a = random_matrix(5, 3, 43);
  const std::vector<double> x{0.3, -1.0, 2.0, 0.1, 0.7};
  const auto y1 = matvec_transposed(a, x);
  const auto y2 = naive_matvec(transpose(a), x);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(y1[j], y2[j], 1e-13);
}

TEST(Level1, DotNorm) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(norm2(x), std::sqrt(14.0));
}

// --- Cholesky ----------------------------------------------------------

TEST(Cholesky, ReconstructsFactorization) {
  // SPD matrix via A = M M^T + n I.
  const Matrix m = random_matrix(6, 6, 55);
  Matrix a = matmul(m, transpose(m));
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 6.0;
  const Matrix l = cholesky_factor(a);
  const Matrix llt = matmul(l, transpose(l));
  EXPECT_LT(max_abs(llt - a), 1e-10);
  // L is lower triangular.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix m = random_matrix(5, 5, 56);
  Matrix a = matmul(m, transpose(m));
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 5.0;
  const std::vector<double> x_true{1.0, -1.0, 2.0, 0.5, -0.25};
  const auto b = naive_matvec(a, x_true);
  const auto x = cholesky_solve(cholesky_factor(a), b);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a = Matrix::identity(3);
  a(2, 2) = -1.0;
  EXPECT_THROW((void)cholesky_factor(a), Error);
}

TEST(LeastSquares, ExactForPolynomialData) {
  // Fit y = 2 - 3x + 0.5x^2 sampled without noise.
  const std::size_t npts = 9;
  Matrix design(npts, 3);
  std::vector<double> y(npts);
  for (std::size_t q = 0; q < npts; ++q) {
    const double x = -2.0 + 0.5 * static_cast<double>(q);
    design(q, 0) = 1.0;
    design(q, 1) = x;
    design(q, 2) = x * x;
    y[q] = 2.0 - 3.0 * x + 0.5 * x * x;
  }
  const auto coeff = least_squares(design, y);
  ASSERT_EQ(coeff.size(), 3u);
  EXPECT_NEAR(coeff[0], 2.0, 1e-10);
  EXPECT_NEAR(coeff[1], -3.0, 1e-10);
  EXPECT_NEAR(coeff[2], 0.5, 1e-10);
}

// --- Tridiagonal / Sturm ------------------------------------------------

TEST(Sturm, CountsEigenvaluesOfKnownMatrix) {
  // Tridiagonal with d = 2, e = -1 (discrete Laplacian, n = 4):
  // eigenvalues 2 - 2 cos(k pi / 5), k = 1..4.
  const std::vector<double> d{2, 2, 2, 2};
  const std::vector<double> e{0, -1, -1, -1};
  std::vector<double> evs;
  for (int k = 1; k <= 4; ++k) {
    evs.push_back(2.0 - 2.0 * std::cos(k * M_PI / 5.0));
  }
  EXPECT_EQ(sturm_count(d, e, 0.0), 0u);
  EXPECT_EQ(sturm_count(d, e, evs[0] + 1e-9), 1u);
  EXPECT_EQ(sturm_count(d, e, evs[2] + 1e-9), 3u);
  EXPECT_EQ(sturm_count(d, e, 10.0), 4u);
}

TEST(Sturm, BisectionEigenvaluesMatchAnalytic) {
  const std::size_t n = 12;
  std::vector<double> d(n, 2.0), e(n, -1.0);
  e[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double analytic =
        2.0 - 2.0 * std::cos((k + 1) * M_PI / static_cast<double>(n + 1));
    EXPECT_NEAR(tridiagonal_eigenvalue(d, e, k), analytic, 1e-9);
  }
}

TEST(Sturm, OutOfRangeIndexThrows) {
  const std::vector<double> d{1.0, 2.0};
  const std::vector<double> e{0.0, 0.1};
  EXPECT_THROW((void)tridiagonal_eigenvalue(d, e, 2), Error);
}

}  // namespace
}  // namespace tbmd::linalg
