// Tests for the blocked partial-spectrum eigensolver stack: blocked
// Householder tridiagonalization, the root-free QL and Sturm-bisection
// eigenvalues, inverse-iteration eigenvectors, and eigh_range() against the
// Jacobi and TQL2 oracles -- including degenerate clusters and partial
// [il, iu] queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/linalg/blas.hpp"
#include "src/linalg/blocked_tridiag.hpp"
#include "src/linalg/eigen_partial.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/linalg/spectral_bounds.hpp"
#include "src/linalg/tridiagonal.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/nanotube.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/parallel.hpp"
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

/// A = Q diag(values) Q^T with Q the (orthogonal) eigenvector matrix of a
/// random symmetric matrix: a symmetric matrix with a prescribed spectrum.
Matrix with_spectrum(const std::vector<double>& values, std::uint64_t seed) {
  const std::size_t n = values.size();
  const Matrix q = jacobi_eigh(random_symmetric(n, seed)).vectors;
  Matrix scaled = q;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) scaled(i, j) *= values[j];
  }
  return matmul(scaled, transpose(q));
}

/// The orthogonal factor Q (n x n) of a blocked tridiagonalization, formed
/// explicitly by applying the reflectors to the identity.
Matrix form_q(const TridiagFactorization& f) {
  Matrix q = Matrix::identity(f.size());
  apply_q(f, q);
  return q;
}

double subset_residual(const Matrix& a, const SymmetricEigenSolution& sol) {
  // max_k || A v_k - lambda_k v_k ||_inf over the computed columns.
  double worst = 0.0;
  const std::size_t n = a.rows();
  const std::size_t m = sol.values.size();
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j) s += a(i, j) * sol.vectors(j, k);
      worst =
          std::max(worst, std::fabs(s - sol.values[k] * sol.vectors(i, k)));
    }
  }
  return worst;
}

double subset_orthogonality_defect(const Matrix& v) {
  const Matrix vtv = matmul(transpose(v), v);
  return max_abs(vtv - Matrix::identity(v.cols()));
}

TEST(BlockedTridiag, MatchesUnblockedReduction) {
  for (const std::size_t n : {2u, 3u, 5u, 17u, 64u, 97u}) {
    const Matrix a = random_symmetric(n, 100 + n);
    const auto fact = blocked_tridiagonalize(a, 8);

    Matrix work = a;
    std::vector<double> d, e;
    householder_tridiagonalize(work, d, e, /*accumulate=*/false);

    // The tridiagonal forms can differ by subdiagonal signs (reflector
    // choices), but the spectrum is identical: compare via eigenvalues.
    std::vector<double> db = fact.d, eb = fact.e;
    std::vector<double> du = d, eu = e;
    tql_implicit_shift(db, eb, nullptr);
    tql_implicit_shift(du, eu, nullptr);
    std::sort(db.begin(), db.end());
    std::sort(du.begin(), du.end());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(db[i], du[i], 1e-11 * std::max(1.0, std::fabs(du[i])))
          << "n = " << n;
    }
  }
}

TEST(BlockedTridiag, QIsOrthogonalAndSimilarityHolds) {
  const std::size_t n = 41;
  const Matrix a = random_symmetric(n, 7);
  const auto fact = blocked_tridiagonalize(a, 8);
  const Matrix q = form_q(fact);

  EXPECT_LT(max_abs(matmul(transpose(q), q) - Matrix::identity(n)), 1e-12);

  // Q^T A Q must equal the tridiagonal T assembled from (d, e).
  Matrix t(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    t(i, i) = fact.d[i];
    if (i > 0) {
      t(i, i - 1) = fact.e[i];
      t(i - 1, i) = fact.e[i];
    }
  }
  const Matrix qtaq = matmul(transpose(q), matmul(a, q));
  EXPECT_LT(max_abs(qtaq - t), 1e-11);
}

TEST(BlockedTridiag, ApplyQAgreesWithExplicitProduct) {
  const std::size_t n = 33;
  const std::size_t m = 5;
  const Matrix a = random_symmetric(n, 11);
  const auto fact = blocked_tridiagonalize(a, 8);
  const Matrix q = form_q(fact);

  Rng rng(13);
  Matrix z(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) z(i, j) = rng.uniform(-1, 1);
  }
  Matrix applied = z;
  apply_q(fact, applied);
  EXPECT_LT(max_abs(applied - matmul(q, z)), 1e-12);
}

TEST(Bisection, MatchesQlValuesOnRandomTridiagonal) {
  const std::size_t n = 73;
  Rng rng(29);
  std::vector<double> d(n), e(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) d[i] = rng.uniform(-2, 2);
  for (std::size_t i = 1; i < n; ++i) e[i] = rng.uniform(-1, 1);

  std::vector<double> dq = d, eq = e;
  tql_implicit_shift(dq, eq, nullptr);
  std::sort(dq.begin(), dq.end());

  const auto all = tridiagonal_eigenvalues_range(d, e, 0, n - 1);
  for (std::size_t k = 0; k < n; ++k) EXPECT_NEAR(all[k], dq[k], 1e-10);

  // A strict sub-range must be the matching slice of the full spectrum.
  const auto mid = tridiagonal_eigenvalues_range(d, e, 20, 40);
  for (std::size_t k = 20; k <= 40; ++k) {
    EXPECT_NEAR(mid[k - 20], dq[k], 1e-10);
  }
}

TEST(Bisection, ConsistentWithSturmCounts) {
  const std::size_t n = 50;
  const Matrix a = random_symmetric(n, 404);
  const auto fact = blocked_tridiagonalize(a);
  const auto vals = tridiagonal_eigenvalues_range(fact.d, fact.e, 0, n - 1);
  const double span = vals.back() - vals.front();
  for (std::size_t k = 0; k < n; ++k) {
    // Just below/above eigenvalue k the Sturm count must bracket k.
    EXPECT_LE(sturm_count(fact.d, fact.e, vals[k] - 1e-8 * span), k);
    EXPECT_GE(sturm_count(fact.d, fact.e, vals[k] + 1e-8 * span), k + 1);
  }
}

// --- root-free QL (ql_eigenvalues) -----------------------------------------

/// Symmetric tridiagonal: diagonal d, subdiagonal e (e[0] = 0,
/// e[i] = T(i, i-1)).
struct Tridiagonal {
  std::vector<double> d, e;
};

Tridiagonal random_tridiagonal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tridiagonal t{std::vector<double>(n), std::vector<double>(n, 0.0)};
  for (double& v : t.d) v = rng.uniform(-1, 1);
  for (std::size_t i = 1; i < n; ++i) t.e[i] = rng.uniform(-1, 1);
  return t;
}

double max_entry(const Tridiagonal& t) {
  double m = 0.0;
  for (std::size_t i = 0; i < t.d.size(); ++i) {
    m = std::max({m, std::fabs(t.d[i]), std::fabs(t.e[i])});
  }
  return m;
}

/// The TQL2 oracle's eigenvalues, ascending.
std::vector<double> oracle_values(Tridiagonal t) {
  tql_implicit_shift(t.d, t.e, nullptr);
  std::sort(t.d.begin(), t.d.end());
  return t.d;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

TEST(QlEigenvalues, ToeplitzMatchesClosedForm) {
  // T = tridiag(1, 0, 1) has eigenvalues 2 cos(k pi / (n + 1)).  Measured
  // worst errors: 1.3e-15 (n = 50) and 1.9e-15 (n = 400).
  for (const std::size_t n : {50u, 400u}) {
    const std::vector<double> d(n, 0.0);
    std::vector<double> e(n, 1.0);
    e[0] = 0.0;
    const std::vector<double> got = ql_eigenvalues(d, e);
    std::vector<double> exact(n);
    for (std::size_t k = 0; k < n; ++k) {
      exact[k] = 2.0 * std::cos(std::acos(-1.0) * static_cast<double>(n - k) /
                                static_cast<double>(n + 1));
    }
    EXPECT_LT(max_abs_diff(got, exact), 8e-15) << "n = " << n;
  }
}

TEST(QlEigenvalues, WilkinsonPairsAreResolved) {
  // W21+: d = |10 - i|, unit couplings.  Its eigenvalues come in pairs that
  // agree to 7e-14 at the top, so a Sturm count just below and above each
  // computed value must bracket its index, and TQL2 must agree.
  const std::size_t n = 21;
  Tridiagonal t{std::vector<double>(n), std::vector<double>(n, 1.0)};
  for (std::size_t i = 0; i < n; ++i) {
    t.d[i] = std::fabs(10.0 - static_cast<double>(i));
  }
  t.e[0] = 0.0;
  const std::vector<double> got = ql_eigenvalues(t.d, t.e);
  const double delta = 8.0 * std::numeric_limits<double>::epsilon() * 10.75;
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_LE(sturm_count(t.d, t.e, got[k] - delta), k) << k;
    EXPECT_GE(sturm_count(t.d, t.e, got[k] + delta), k + 1) << k;
  }
  EXPECT_LT(got[n - 1] - got[n - 2], 1e-12);  // the top pair
  EXPECT_LT(max_abs_diff(got, oracle_values(t)), 2e-14);  // measured 5.3e-15
}

TEST(QlEigenvalues, ExactZeroCouplingsSplitIntoIndependentBlocks) {
  // Blocks of 5, 1, 2 and 10 rows joined by exact zeros: the spectrum is
  // the union of the blocks' spectra, to the bit.
  const Tridiagonal whole = random_tridiagonal(18, 404);
  Tridiagonal t = whole;
  std::vector<double> union_values;
  std::size_t lo = 0;
  for (const std::size_t hi : {5u, 6u, 8u, 18u}) {
    if (hi < 18) t.e[hi] = 0.0;
    Tridiagonal block{{t.d.begin() + lo, t.d.begin() + hi},
                      {t.e.begin() + lo, t.e.begin() + hi}};
    block.e[0] = 0.0;
    const std::vector<double> v = ql_eigenvalues(block.d, block.e);
    union_values.insert(union_values.end(), v.begin(), v.end());
    lo = hi;
  }
  std::sort(union_values.begin(), union_values.end());
  EXPECT_EQ(ql_eigenvalues(t.d, t.e), union_values);
  EXPECT_LT(max_abs_diff(union_values, oracle_values(t)), 1e-14);  // 8.9e-16
}

TEST(QlEigenvalues, DiagonalMatrixComesBackBitExact) {
  const Tridiagonal t = random_tridiagonal(37, 5);
  const std::vector<double> zero(37, 0.0);
  std::vector<double> sorted = t.d;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(ql_eigenvalues(t.d, zero), sorted);
}

TEST(QlEigenvalues, GradedMatrixMatchesOracle) {
  // Diagonal and couplings falling by 16 orders of magnitude down the
  // matrix.  Measured: 2.1e-16 against TQL2.
  const std::size_t n = 40;
  Tridiagonal t{std::vector<double>(n), std::vector<double>(n, 0.0)};
  for (std::size_t i = 0; i < n; ++i) {
    t.d[i] = std::pow(10.0, -0.4 * static_cast<double>(i));
    if (i > 0) t.e[i] = std::pow(10.0, -0.4 * static_cast<double>(i) + 0.1);
  }
  EXPECT_LT(max_abs_diff(ql_eigenvalues(t.d, t.e), oracle_values(t)), 2e-15);
}

TEST(QlEigenvalues, ExtremeScalesStayAccurate) {
  // Squaring the couplings of a matrix scaled by 1e-160 underflows and by
  // 1e200 overflows, so each block is scaled into the safe range first.
  // Reference: TQL2 on the unscaled matrix, times the scale.  Measured
  // |dl| / (scale ||T||): 7.6e-15 unscaled, 8.0e-15 at 1e-160 and 5.6e-15
  // at 1e200.  The same loop without the scaling is off by 0.099 and
  // 0.94 (x scale).
  const Tridiagonal t = random_tridiagonal(100, 77);
  const std::vector<double> ref = oracle_values(t);
  const double norm = max_entry(t);
  for (const double scale : {1.0, 1e-160, 1e200}) {
    Tridiagonal ts = t;
    for (double& v : ts.d) v *= scale;
    for (double& v : ts.e) v *= scale;
    const std::vector<double> got = ql_eigenvalues(ts.d, ts.e);
    double worst = 0.0;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      worst = std::max(worst, std::fabs(got[k] / scale - ref[k]));
    }
    EXPECT_LT(worst, 2e-14 * norm) << "scale " << scale;
  }
}

TEST(QlEigenvalues, NonConvergenceThrows) {
  Tridiagonal t = random_tridiagonal(10, 3);
  t.d[4] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)ql_eigenvalues(t.d, t.e), Error);
}

TEST(QlEigenvalues, NanotubeWindowMatchesTql2Oracle) {
  // The cnt_exact_md tube ((8,0), 6 cells, open; 768 orbitals) and its
  // occupied window [0, 384].  Oracle: the unblocked reduction and TQL2;
  // without eigenvectors TQL2's eigenvalues are the ones eigh_ql returns.
  // Measured worst |dl|: 1.1e-13 eV on a ~23 eV spectrum.
  const System tube = structures::nanotube(Element::C, 8, 0, 1.42, 6,
                                           /*periodic=*/false);
  const tb::TbModel model = tb::xwch_carbon();
  NeighborList list;
  list.build(tube.positions(), tube.cell(), {model.cutoff(), 0.5});
  Matrix h = tb::build_hamiltonian(model, tube, list);
  const auto got = eigh_range(h, 0, 384);

  Tridiagonal t;
  householder_tridiagonalize(h, t.d, t.e, /*accumulate=*/false);
  std::vector<double> ref = oracle_values(t);
  ref.resize(385);
  EXPECT_LT(max_abs_diff(got.values, ref), 3e-13);
}

class EighRangeFull : public ::testing::TestWithParam<int> {};

TEST_P(EighRangeFull, FullRangeMatchesJacobiToTightTolerance) {
  const int n = GetParam();
  const Matrix a = random_symmetric(n, 5000 + n);
  const auto sol = eigh_range(a, 0, n - 1);
  const auto jac = jacobi_eigh(a);

  ASSERT_EQ(sol.values.size(), static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(sol.values[k], jac.values[k], 1e-10);
  }
  EXPECT_LT(subset_residual(a, sol), 1e-10);
  EXPECT_LT(subset_orthogonality_defect(sol.vectors), 1e-10);
}

// N = 8 / 64 / 257 per the issue: below, at, and beyond typical TB
// Hamiltonian block sizes (257 odd to exercise ragged panel edges).
INSTANTIATE_TEST_SUITE_P(Sizes, EighRangeFull, ::testing::Values(8, 64, 257));

class EighRangePartial
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EighRangePartial, SliceMatchesFullSpectrumSolve) {
  const auto [n, il, iu] = GetParam();
  const Matrix a = random_symmetric(n, 9000 + n + il);
  const auto sol = eigh_range(a, il, iu);
  const auto jac = jacobi_eigh(a);

  ASSERT_EQ(sol.values.size(), static_cast<std::size_t>(iu - il + 1));
  ASSERT_EQ(sol.vectors.rows(), static_cast<std::size_t>(n));
  ASSERT_EQ(sol.vectors.cols(), static_cast<std::size_t>(iu - il + 1));
  for (int k = il; k <= iu; ++k) {
    EXPECT_NEAR(sol.values[k - il], jac.values[k], 1e-10);
  }
  EXPECT_LT(subset_residual(a, sol), 1e-10);
  EXPECT_LT(subset_orthogonality_defect(sol.vectors), 1e-10);

  const auto vals_only = eigvalsh_range(a, il, iu);
  ASSERT_EQ(vals_only.size(), sol.values.size());
  for (std::size_t k = 0; k < vals_only.size(); ++k) {
    EXPECT_NEAR(vals_only[k], sol.values[k], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, EighRangePartial,
    ::testing::Values(std::make_tuple(8, 0, 3),      // occupied half, tiny
                      std::make_tuple(64, 0, 31),    // occupied half
                      std::make_tuple(64, 0, 0),     // ground state only
                      std::make_tuple(64, 60, 63),   // top of the spectrum
                      std::make_tuple(257, 0, 128),  // odd N occupied half
                      std::make_tuple(257, 100, 140)));  // interior window

TEST(EighRange, DegenerateClusterInsideRequestedRange) {
  // Spectrum with a 4-fold cluster at 1.0 and a 3-fold cluster at 2.0;
  // request a window cutting through both.
  const std::vector<double> spectrum{-3.0, -1.5, 1.0,  1.0, 1.0, 1.0,
                                     2.0,  2.0,  2.0,  4.0, 5.5, 7.0};
  const Matrix a = with_spectrum(spectrum, 31);
  const auto sol = eigh_range(a, 2, 8);  // the two clusters, nothing else
  for (std::size_t k = 0; k < sol.values.size(); ++k) {
    EXPECT_NEAR(sol.values[k], spectrum[k + 2], 1e-10);
  }
  EXPECT_LT(subset_residual(a, sol), 1e-10);
  EXPECT_LT(subset_orthogonality_defect(sol.vectors), 1e-10);
}

TEST(EighRange, NearDegenerateClusterStaysOrthogonal) {
  // Eigenvalues split by 1e-9 of the spectral width: well below the cluster
  // threshold, the classic failure mode of naive inverse iteration.
  std::vector<double> spectrum{-2.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9, 3.0, 6.0};
  const Matrix a = with_spectrum(spectrum, 37);
  const auto sol = eigh_range(a, 0, 5);
  EXPECT_LT(subset_residual(a, sol), 1e-10);
  EXPECT_LT(subset_orthogonality_defect(sol.vectors), 1e-10);
}

TEST(EighRange, UncoupledBlocksKeepEigenvectorsConfined) {
  // Two identical, completely uncoupled 3x3 blocks: every eigenvalue is
  // doubly degenerate across the blocks.  Eigenvectors must stay confined
  // to a single block (zero amplitude on the other), the xSTEIN block
  // convention -- otherwise uncoupled subsystems pick up spurious coherence
  // (e.g. nonzero Mayer bond orders between distant atoms).
  const std::size_t nb = 3;
  const Matrix blockm = random_symmetric(nb, 55);
  Matrix a(2 * nb, 2 * nb, 0.0);
  for (std::size_t i = 0; i < nb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      a(i, j) = blockm(i, j);
      a(nb + i, nb + j) = blockm(i, j);
    }
  }
  const auto sol = eigh_range(a, 0, 2 * nb - 1);
  EXPECT_LT(subset_residual(a, sol), 1e-10);
  EXPECT_LT(subset_orthogonality_defect(sol.vectors), 1e-10);
  for (std::size_t k = 0; k < 2 * nb; ++k) {
    double w_top = 0.0, w_bot = 0.0;
    for (std::size_t i = 0; i < nb; ++i) {
      w_top += sol.vectors(i, k) * sol.vectors(i, k);
      w_bot += sol.vectors(nb + i, k) * sol.vectors(nb + i, k);
    }
    EXPECT_LT(std::min(w_top, w_bot), 1e-20) << "column " << k;
  }
}

TEST(EighRange, GradedSpectrumKeepsSmallEigenvaluesAccurate) {
  // Diagonal spanning many orders of magnitude with small couplings: the
  // Rayleigh-polish path must keep residuals far below eps * ||A||.
  const std::size_t n = 12;
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = std::pow(10.0, static_cast<double>(i) - 4.0);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a(i, i + 1) = a(i + 1, i) = 1e-6;
  }
  const auto sol = eigh_range(a, 0, n - 1);
  EXPECT_LT(subset_residual(a, sol), 1e-9);
}

TEST(EighRange, AgreesWithQlOracle) {
  const std::size_t n = 100;
  const Matrix a = random_symmetric(n, 61);
  const auto fast = eigh_range(a, 0, n - 1);
  const auto oracle = eigh_ql(a);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast.values[k], oracle.values[k], 1e-10);
  }
}

TEST(EighRange, RejectsBadRanges) {
  const Matrix a = random_symmetric(6, 3);
  EXPECT_THROW((void)eigh_range(a, 2, 1), Error);
  EXPECT_THROW((void)eigh_range(a, 0, 6), Error);
  Matrix rect(3, 4);
  EXPECT_THROW((void)eigh_range(rect, 0, 1), Error);
}

void expect_same(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << i << "," << j;
    }
  }
}

TEST(EighRange, BitIdenticalAcrossThreadCounts) {
  // Results must not depend on the thread count (src/util/parallel.hpp):
  // the chunked symv, the GEMM micro-kernel under the trailing update, the
  // back-transform and rho, and the (n, m)-only QL/bisection choice.
  const std::size_t n = 320;
  const Matrix a = random_symmetric(n, 2024);
  struct RestoreThreads {
    int saved = par::max_threads();
    ~RestoreThreads() { par::set_num_threads(saved); }
  } restore;

  struct Run {
    SymmetricEigenSolution half, window;
    Matrix rho;
    ForceResult tb;
  };
  const auto run = [&](int threads) {
    par::set_num_threads(threads);
    Run out;
    out.half = eigh_range(a, 0, n / 2 - 1);     // values-only QL path
    out.window = eigh_range(a, 150, 165);       // Sturm bisection path
    std::vector<double> weights(n / 2);
    for (std::size_t k = 0; k < weights.size(); ++k) {
      weights[k] = 2.0 - static_cast<double>(k % 3) * 0.5;
    }
    out.rho = tb::density_matrix(out.half.vectors, weights);

    System cell = structures::diamond(Element::C, 3.567, 2, 2, 2);
    structures::perturb(cell, 0.1, 77);
    CalculatorSpec opt;
    opt.report_eigenvalues = false;  // the production partial-spectrum path
    tb::TightBindingCalculator calc(tb::xwch_carbon(), opt);
    out.tb = calc.compute(cell);
    return out;
  };

  const Run ref = run(1);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const Run got = run(threads);
    EXPECT_EQ(got.half.values, ref.half.values);
    expect_same(got.half.vectors, ref.half.vectors);
    EXPECT_EQ(got.window.values, ref.window.values);
    expect_same(got.window.vectors, ref.window.vectors);
    expect_same(got.rho, ref.rho);
    EXPECT_EQ(got.tb.energy, ref.tb.energy);
    ASSERT_EQ(got.tb.forces.size(), ref.tb.forces.size());
    for (std::size_t i = 0; i < ref.tb.forces.size(); ++i) {
      EXPECT_EQ(got.tb.forces[i], ref.tb.forces[i]) << i;
    }
  }
}

TEST(SpectralBounds, EncloseDenseAndTridiagonalSpectra) {
  const std::size_t n = 24;
  const Matrix a = random_symmetric(n, 71);
  const auto vals = eigvalsh(a);
  const SpectralBounds dense = gershgorin_bounds(a);
  EXPECT_LE(dense.lo, vals.front());
  EXPECT_GE(dense.hi, vals.back());

  const auto fact = blocked_tridiagonalize(a);
  const SpectralBounds tri = gershgorin_bounds(fact.d, fact.e);
  EXPECT_LE(tri.lo, vals.front());
  EXPECT_GE(tri.hi, vals.back());
  EXPECT_GE(tri.scale(), std::fabs(vals.back()));
}

}  // namespace
}  // namespace tbmd::linalg
