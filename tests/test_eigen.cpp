// Tests for the symmetric eigensolver (Householder + implicit-shift QL)
// against the Jacobi reference and analytic spectra, plus Sturm-sequence
// property checks.

#include <gtest/gtest.h>

#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/linalg/jacobi.hpp"
#include "src/linalg/tridiagonal.hpp"
#include "src/util/random.hpp"
#include "tests/eigen_oracle.hpp"

namespace tbmd::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-scale, scale);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

double eigen_residual(const Matrix& a, const SymmetricEigenSolution& sol) {
  // max_k || A v_k - lambda_k v_k ||_inf
  double worst = 0.0;
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j) s += a(i, j) * sol.vectors(j, k);
      worst = std::max(worst,
                       std::fabs(s - sol.values[k] * sol.vectors(i, k)));
    }
  }
  return worst;
}

double orthogonality_defect(const Matrix& v) {
  const Matrix vtv = matmul(transpose(v), v);
  return max_abs(vtv - Matrix::identity(v.rows()));
}

TEST(Eigh, EmptyAndTrivialSizes) {
  Matrix a0(0, 0);
  EXPECT_TRUE(eigvalsh(a0).empty());

  Matrix a1(1, 1);
  a1(0, 0) = -3.5;
  const auto s1 = eigh(a1);
  ASSERT_EQ(s1.values.size(), 1u);
  EXPECT_DOUBLE_EQ(s1.values[0], -3.5);
  EXPECT_DOUBLE_EQ(std::fabs(s1.vectors(0, 0)), 1.0);
}

TEST(Eigh, TwoByTwoAnalytic) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  a(0, 1) = a(1, 0) = 1.0;
  const auto s = eigh(a);
  EXPECT_NEAR(s.values[0], 3.0 - std::sqrt(2.0), 1e-13);
  EXPECT_NEAR(s.values[1], 3.0 + std::sqrt(2.0), 1e-13);
}

TEST(Eigh, DiagonalMatrixSortedAscending) {
  Matrix a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 7.0;
  a(3, 3) = 0.0;
  const auto s = eigh(a);
  EXPECT_DOUBLE_EQ(s.values[0], -1.0);
  EXPECT_DOUBLE_EQ(s.values[1], 0.0);
  EXPECT_DOUBLE_EQ(s.values[2], 3.0);
  EXPECT_DOUBLE_EQ(s.values[3], 7.0);
}

TEST(Eigh, HandlesDegenerateEigenvalues) {
  // I + rank-1: eigenvalues {1 (x3), 1 + ||w||^2}.
  const std::size_t n = 4;
  std::vector<double> w{0.5, -0.5, 1.0, 0.25};
  Matrix a = Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) += w[i] * w[j];
  }
  const auto s = eigh(a);
  double w2 = 0.0;
  for (const double x : w) w2 += x * x;
  EXPECT_NEAR(s.values[0], 1.0, 1e-12);
  EXPECT_NEAR(s.values[1], 1.0, 1e-12);
  EXPECT_NEAR(s.values[2], 1.0, 1e-12);
  EXPECT_NEAR(s.values[3], 1.0 + w2, 1e-12);
  EXPECT_LT(eigen_residual(a, s), 1e-12);
  EXPECT_LT(orthogonality_defect(s.vectors), 1e-12);
}

class EighRandom : public ::testing::TestWithParam<int> {};

TEST_P(EighRandom, MatchesJacobiAndSatisfiesDefinition) {
  const int n = GetParam();
  const Matrix a = random_symmetric(n, 1000 + n);
  const auto ql = eigh(a);
  const auto jac = jacobi_eigh(a);

  ASSERT_EQ(ql.values.size(), static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(ql.values[k], jac.values[k], 1e-10 * std::max(1.0, max_abs(a)));
  }
  EXPECT_LT(eigen_residual(a, ql), 1e-10);
  EXPECT_LT(orthogonality_defect(ql.vectors), 1e-10);
  // Values must come out sorted.
  for (int k = 1; k < n; ++k) EXPECT_LE(ql.values[k - 1], ql.values[k]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighRandom,
                         ::testing::Values(2, 3, 5, 8, 16, 33, 64, 100, 150));

class EigvalshRandom : public ::testing::TestWithParam<int> {};

TEST_P(EigvalshRandom, ValuesOnlyPathAgreesWithFullSolve) {
  const int n = GetParam();
  const Matrix a = random_symmetric(n, 2000 + n);
  const auto full = eigh(a);
  const auto vals = eigvalsh(a);
  ASSERT_EQ(vals.size(), full.values.size());
  for (int k = 0; k < n; ++k) EXPECT_NEAR(vals[k], full.values[k], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigvalshRandom,
                         ::testing::Values(2, 7, 24, 65, 120));

TEST(Eigh, TraceAndFrobeniusInvariants) {
  const std::size_t n = 40;
  const Matrix a = random_symmetric(n, 77);
  const auto vals = eigvalsh(a);
  double tr = 0.0, sum_sq = 0.0;
  for (const double v : vals) {
    tr += v;
    sum_sq += v * v;
  }
  double tr_a = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr_a += a(i, i);
  EXPECT_NEAR(tr, tr_a, 1e-10);
  const double frob = frobenius_norm(a);
  EXPECT_NEAR(std::sqrt(sum_sq), frob, 1e-10);
}

TEST(Eigh, ShiftInvariance) {
  const std::size_t n = 24;
  Matrix a = random_symmetric(n, 91);
  const auto vals = eigvalsh(a);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
  const auto shifted = eigvalsh(a);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(shifted[k], vals[k] + 5.0, 1e-10);
  }
}

TEST(Eigh, ScaleEquivariance) {
  const std::size_t n = 18;
  const Matrix a = random_symmetric(n, 93);
  const auto vals = eigvalsh(a);
  const Matrix b = a * (-2.0);
  auto scaled = eigvalsh(b);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(scaled[k], -2.0 * vals[n - 1 - k], 1e-10);
  }
}

TEST(Eigh, WideSpectrumStaysAccurate) {
  // Diagonal spans 8 orders of magnitude plus a small coupling.
  const std::size_t n = 12;
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = std::pow(10.0, static_cast<double>(i) - 4.0);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a(i, i + 1) = a(i + 1, i) = 1e-6;
  }
  const auto s = eigh(a);
  EXPECT_LT(eigen_residual(a, s), 1e-9);
}

TEST(Eigh, RejectsNonSquare) {
  Matrix a(3, 4);
  EXPECT_THROW((void)eigh(a), Error);
  EXPECT_THROW((void)eigvalsh(a), Error);
}

TEST(Householder, ProducesOrthogonalQAndSimilarTridiagonal) {
  const std::size_t n = 30;
  const Matrix a = random_symmetric(n, 303);
  Matrix q = a;
  std::vector<double> d, e;
  householder_tridiagonalize(q, d, e, /*accumulate=*/true);

  EXPECT_LT(orthogonality_defect(q), 1e-11);

  // Rebuild T from (d, e) and check Q^T A Q = T.
  Matrix t(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    t(i, i) = d[i];
    if (i > 0) {
      t(i, i - 1) = e[i];
      t(i - 1, i) = e[i];
    }
  }
  const Matrix qtaq = matmul(transpose(q), matmul(a, q));
  EXPECT_LT(max_abs(qtaq - t), 1e-10);
}

TEST(Householder, SturmCountConsistentWithFinalEigenvalues) {
  // Property test: for several probe energies, the Sturm count of the
  // tridiagonal reduction equals the number of eigenvalues below the probe.
  const std::size_t n = 50;
  const Matrix a = random_symmetric(n, 404);
  Matrix work = a;
  std::vector<double> d, e;
  householder_tridiagonalize(work, d, e, /*accumulate=*/false);
  const auto vals = eigvalsh(a);

  for (const double probe : {-2.0, -0.5, 0.0, 0.3, 1.5}) {
    std::size_t expected = 0;
    for (const double v : vals) expected += (v < probe);
    EXPECT_EQ(sturm_count(d, e, probe), expected) << "probe = " << probe;
  }
}

TEST(Jacobi, AgreesWithAnalytic2x2) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  a(0, 1) = a(1, 0) = 0.5;
  const auto s = jacobi_eigh(a);
  EXPECT_NEAR(s.values[0], 0.5, 1e-12);
  EXPECT_NEAR(s.values[1], 1.5, 1e-12);
}

TEST(Jacobi, ResidualAndOrthogonality) {
  const Matrix a = random_symmetric(20, 505);
  const auto s = jacobi_eigh(a);
  EXPECT_LT(eigen_residual(a, s), 1e-10);
  EXPECT_LT(orthogonality_defect(s.vectors), 1e-10);
}

}  // namespace
}  // namespace tbmd::linalg
