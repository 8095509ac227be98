// Tests for the k-space layer: complex Hermitian eigensolver, Bloch
// Hamiltonians, band folding, Dirac point of graphene, silicon band gap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/linalg/eigen_sym.hpp"
#include "src/linalg/hermitian.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/bloch.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/util/random.hpp"

namespace tbmd::tb {
namespace {

// --- Hermitian eigensolver ----------------------------------------------

linalg::Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1, 1);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

linalg::Matrix random_antisymmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double v = rng.uniform(-1, 1);
      m(i, j) = v;
      m(j, i) = -v;
    }
  }
  return m;
}

TEST(HermitianEig, RealMatrixReducesToSymmetricSolver) {
  const auto a = random_symmetric(12, 3);
  const linalg::Matrix b(12, 12, 0.0);
  const auto herm = linalg::eigvalsh_hermitian(a, b);
  const auto real = linalg::eigvalsh(a);
  ASSERT_EQ(herm.size(), real.size());
  for (std::size_t k = 0; k < herm.size(); ++k) {
    EXPECT_NEAR(herm[k], real[k], 1e-10);
  }
}

TEST(HermitianEig, TwoByTwoAnalytic) {
  // H = [[1, i], [-i, 1]] has eigenvalues 0 and 2.
  linalg::Matrix a = linalg::Matrix::identity(2);
  linalg::Matrix b(2, 2, 0.0);
  b(0, 1) = 1.0;
  b(1, 0) = -1.0;
  const auto vals = linalg::eigvalsh_hermitian(a, b);
  EXPECT_NEAR(vals[0], 0.0, 1e-12);
  EXPECT_NEAR(vals[1], 2.0, 1e-12);
}

class HermitianRandom : public ::testing::TestWithParam<int> {};

TEST_P(HermitianRandom, SatisfiesEigenEquation) {
  const int n = GetParam();
  const auto a = random_symmetric(n, 100 + n);
  const auto b = random_antisymmetric(n, 200 + n);
  const auto sol = linalg::eigh_hermitian(a, b);

  ASSERT_EQ(sol.values.size(), static_cast<std::size_t>(n));
  // Residual of (A + iB)(x + iy) = lambda (x + iy), split into parts:
  //   A x - B y = lambda x     and     A y + B x = lambda y.
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      double re = 0.0, im = 0.0;
      for (int j = 0; j < n; ++j) {
        re += a(i, j) * sol.vectors_real(j, k) - b(i, j) * sol.vectors_imag(j, k);
        im += a(i, j) * sol.vectors_imag(j, k) + b(i, j) * sol.vectors_real(j, k);
      }
      EXPECT_NEAR(re, sol.values[k] * sol.vectors_real(i, k), 1e-9);
      EXPECT_NEAR(im, sol.values[k] * sol.vectors_imag(i, k), 1e-9);
    }
  }
  // Values ascending.
  for (int k = 1; k < n; ++k) EXPECT_LE(sol.values[k - 1], sol.values[k]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HermitianRandom, ::testing::Values(2, 5, 9, 16));

TEST(HermitianEig, RejectsNonHermitianInput) {
  linalg::Matrix a(3, 3, 0.0);
  a(0, 1) = 1.0;  // not symmetric
  linalg::Matrix b(3, 3, 0.0);
  EXPECT_THROW((void)linalg::eigvalsh_hermitian(a, b), Error);

  linalg::Matrix a2 = linalg::Matrix::identity(3);
  linalg::Matrix b2(3, 3, 0.0);
  b2(0, 1) = 1.0;  // not antisymmetric (b2(1,0) == 0)
  EXPECT_THROW((void)linalg::eigvalsh_hermitian(a2, b2), Error);
}

// --- Bloch Hamiltonian ---------------------------------------------------

TEST(Bloch, GammaPointMatchesRealSpaceSupercell) {
  // For a supercell large enough for the minimum-image convention, H(k=0)
  // must equal the real-space Hamiltonian -- for the sp carbon model and
  // for the spd gold model (fcc 2x2x2: its 8.16 A edge is more than twice
  // the 3.90 A cutoff).
  System diamond = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(diamond, 0.02, 5);
  System fcc = structures::fcc(Element::Au, 4.08, 2, 2, 2);
  structures::perturb(fcc, 0.02, 5);
  const std::pair<TbModel, System> cases[] = {{xwch_carbon(), diamond},
                                              {kirchhoff_gold(), fcc}};
  for (const auto& [m, s] : cases) {
    NeighborList list;
    list.build(s.positions(), s.cell(), {m.cutoff(), 0.0});
    const auto real_h = build_hamiltonian(m, s, list);
    const auto real_vals = linalg::eigvalsh(real_h);

    const auto bloch_vals = bloch_eigenvalues(m, s, {0, 0, 0});
    ASSERT_EQ(bloch_vals.size(), real_vals.size()) << m.name;
    for (std::size_t k = 0; k < real_vals.size(); ++k) {
      EXPECT_NEAR(bloch_vals[k], real_vals[k], 1e-8) << m.name;
    }
  }
}

TEST(Bloch, BandFoldingIdentity) {
  // The spectrum of an L x 1 x 1 supercell at Gamma equals the union of the
  // primitive-cell spectra at the L commensurate k-points -- the band
  // folding theorem, a stringent end-to-end check of phases and images.
  const TbModel m = gsp_silicon();
  const double a = 5.431;
  System primitive = structures::diamond(Element::Si, a, 1, 1, 1);
  System super = structures::diamond(Element::Si, a, 2, 1, 1);

  std::vector<double> folded;
  for (int q = 0; q < 2; ++q) {
    const Vec3 k = fractional_to_k(primitive.cell(),
                                   {static_cast<double>(q) / 2.0, 0, 0});
    const auto eps = bloch_eigenvalues(m, primitive, k);
    folded.insert(folded.end(), eps.begin(), eps.end());
  }
  std::sort(folded.begin(), folded.end());

  const auto super_gamma = bloch_eigenvalues(m, super, {0, 0, 0});
  ASSERT_EQ(super_gamma.size(), folded.size());
  for (std::size_t k = 0; k < folded.size(); ++k) {
    EXPECT_NEAR(super_gamma[k], folded[k], 1e-8) << "state " << k;
  }
}

TEST(Bloch, SpectrumIsEvenInK) {
  // Time-reversal symmetry: eps(-k) = eps(k).
  const TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 1, 1, 1);
  const Vec3 k = fractional_to_k(s.cell(), {0.21, 0.37, -0.11});
  const auto plus = bloch_eigenvalues(m, s, k);
  const auto minus = bloch_eigenvalues(m, s, -k);
  for (std::size_t q = 0; q < plus.size(); ++q) {
    EXPECT_NEAR(plus[q], minus[q], 1e-9);
  }
}

TEST(Bloch, ReciprocalLatticePeriodicity) {
  // eps(k + G) = eps(k) in the atomic gauge for lattice-commensurate G.
  const TbModel m = gsp_silicon();
  System s = structures::diamond(Element::Si, 5.431, 1, 1, 1);
  const Vec3 kf{0.13, 0.27, 0.41};
  const auto base = bloch_eigenvalues(m, s, fractional_to_k(s.cell(), kf));
  const auto shifted = bloch_eigenvalues(
      m, s, fractional_to_k(s.cell(), kf + Vec3{1.0, 0.0, -1.0}));
  for (std::size_t q = 0; q < base.size(); ++q) {
    EXPECT_NEAR(base[q], shifted[q], 1e-8);
  }
}

TEST(Bloch, GrapheneDiracPointAtK) {
  // Rectangular 4-atom graphene cell: the Dirac point folds onto
  // fractional (1/3, 0).  The pi gap must close there and be open at Gamma.
  const TbModel m = xwch_carbon();
  System g = structures::graphene(Element::C, 1.42, 1, 1);
  const int ne = g.total_valence_electrons();
  const std::size_t homo = ne / 2 - 1;

  const auto at_k = bloch_eigenvalues(
      m, g, fractional_to_k(g.cell(), {1.0 / 3.0, 0.0, 0.0}));
  const double gap_k = at_k[homo + 1] - at_k[homo];
  EXPECT_NEAR(gap_k, 0.0, 1e-6);

  const auto at_gamma = bloch_eigenvalues(m, g, {0, 0, 0});
  const double gap_gamma = at_gamma[homo + 1] - at_gamma[homo];
  EXPECT_GT(gap_gamma, 1.0);
}

TEST(Bloch, SiliconGapAndValenceWidthAreReasonable) {
  const TbModel m = gsp_silicon();
  System si = structures::diamond(Element::Si, 5.431, 1, 1, 1);
  const auto kpts = monkhorst_pack_grid(si.cell(), 4, 4, 4);
  const KGridResult res =
      kgrid_band_energy(m, si, kpts, si.total_valence_electrons());
  // GSP silicon: indirect gap ~ 1.2 eV class; valence width ~ 12 eV.
  EXPECT_GT(res.gap, 0.3);
  EXPECT_LT(res.gap, 3.0);

  const auto gamma = bloch_eigenvalues(m, si, {0, 0, 0});
  const double valence_width = gamma[si.total_valence_electrons() / 2 - 1] -
                               gamma.front();
  EXPECT_GT(valence_width, 8.0);
  EXPECT_LT(valence_width, 16.0);
}

TEST(Bloch, KGridEnergyConvergesWithSampling) {
  // Denser grids must converge; 4^3 vs 6^3 should agree to ~10 meV/atom.
  const TbModel m = gsp_silicon();
  System si = structures::diamond(Element::Si, 5.431, 1, 1, 1);
  const int ne = si.total_valence_electrons();
  const auto coarse = kgrid_band_energy(
      m, si, monkhorst_pack_grid(si.cell(), 3, 3, 3), ne);
  const auto fine = kgrid_band_energy(
      m, si, monkhorst_pack_grid(si.cell(), 6, 6, 6), ne);
  EXPECT_NEAR(coarse.band_energy / si.size(), fine.band_energy / si.size(),
              0.1);
}

TEST(Bloch, KPathInterpolation) {
  const std::vector<Vec3> way{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}};
  const auto path = interpolate_kpath(way, 4);
  ASSERT_EQ(path.size(), 9u);  // 4 + 4 + endpoint
  EXPECT_EQ(path.front(), (Vec3{0, 0, 0}));
  EXPECT_EQ(path.back(), (Vec3{1, 1, 0}));
  EXPECT_NEAR(path[2].x, 0.5, 1e-12);
}

TEST(Bloch, MonkhorstPackCountsAndSymmetry) {
  System si = structures::diamond(Element::Si, 5.431, 1, 1, 1);
  const auto grid = monkhorst_pack_grid(si.cell(), 2, 3, 4);
  EXPECT_EQ(grid.size(), 24u);
  // Standard MP grids with even divisions avoid Gamma.
  const auto grid2 = monkhorst_pack_grid(si.cell(), 2, 2, 2);
  for (const Vec3& k : grid2) EXPECT_GT(norm(k), 1e-6);
  // Gamma-centered grids include it.
  const auto gamma_grid = monkhorst_pack_grid(si.cell(), 2, 2, 2, true);
  bool has_gamma = false;
  for (const Vec3& k : gamma_grid) has_gamma |= (norm(k) < 1e-12);
  EXPECT_TRUE(has_gamma);
}

TEST(Bloch, RejectsNonPeriodicSystems) {
  const TbModel m = xwch_carbon();
  System cluster = structures::dimer(Element::C, 1.4);
  EXPECT_THROW((void)bloch_eigenvalues(m, cluster, {0, 0, 0}), Error);
}

}  // namespace
}  // namespace tbmd::tb
