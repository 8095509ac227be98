// Tests for electronic occupations: aufbau filling, Fermi-Dirac smearing,
// chemical-potential bisection and the Mermin entropy term.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/linalg/eigen_sym.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace tbmd::tb {
namespace {

double total_weight(const Occupations& occ) {
  return std::accumulate(occ.weights.begin(), occ.weights.end(), 0.0);
}

TEST(ZeroTemperature, EvenElectronCountFillsPairs) {
  const std::vector<double> eps{-2.0, -1.0, 0.5, 2.0};
  const Occupations occ = occupy(eps, 4, 0.0);
  EXPECT_DOUBLE_EQ(occ.weights[0], 2.0);
  EXPECT_DOUBLE_EQ(occ.weights[1], 2.0);
  EXPECT_DOUBLE_EQ(occ.weights[2], 0.0);
  EXPECT_DOUBLE_EQ(occ.weights[3], 0.0);
  EXPECT_DOUBLE_EQ(occ.band_energy, -6.0);
  EXPECT_DOUBLE_EQ(occ.fermi_level, 0.5 * (-1.0 + 0.5));
  EXPECT_DOUBLE_EQ(occ.entropy_term, 0.0);
}

TEST(ZeroTemperature, OddElectronLeavesHalfFilledHomo) {
  const std::vector<double> eps{-2.0, -1.0, 0.5, 2.0};
  const Occupations occ = occupy(eps, 3, 0.0);
  EXPECT_DOUBLE_EQ(occ.weights[0], 2.0);
  EXPECT_DOUBLE_EQ(occ.weights[1], 1.0);
  EXPECT_DOUBLE_EQ(occ.band_energy, -5.0);
  EXPECT_DOUBLE_EQ(occ.fermi_level, 0.5 * (-1.0 + 0.5));
}

TEST(ZeroTemperature, FullBandUsesTopLevelAsFermi) {
  const std::vector<double> eps{-1.0, 1.0};
  const Occupations occ = occupy(eps, 4, 0.0);
  EXPECT_DOUBLE_EQ(total_weight(occ), 4.0);
  EXPECT_DOUBLE_EQ(occ.fermi_level, 1.0);
}

TEST(ZeroTemperature, DegenerateFermiLevelSharesItsElectrons) {
  // A two-fold level split by rounding holds the HOMO and the LUMO: its
  // two electrons go one to each state, the T -> 0 limit of Fermi-Dirac.
  const std::vector<double> pair{-2.0, -1.0, 0.5, 0.5 + 4.5e-14, 2.0};
  Occupations occ = occupy(pair, 6, 0.0);
  EXPECT_EQ(occ.weights, (std::vector<double>{2.0, 2.0, 1.0, 1.0, 0.0}));
  EXPECT_DOUBLE_EQ(occ.band_energy, -6.0 + 1.0 + 4.5e-14);
  EXPECT_DOUBLE_EQ(occ.fermi_level, 0.5 + 2.25e-14);

  // Three-fold, four electrons left; and three electrons in a pair.
  const std::vector<double> triple{-1.0, 0.0, 1e-15, 2e-15, 3.0};
  occ = occupy(triple, 6, 0.0);
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(occ.weights[k], 4.0 / 3.0) << k;
  }
  occ = occupy({-1.0, 0.0, 1e-15, 3.0}, 5, 0.0);
  EXPECT_EQ(occ.weights, (std::vector<double>{2.0, 1.5, 1.5, 0.0}));

  // A level below the Fermi level stays full, and a split well above
  // rounding keeps aufbau.
  occ = occupy({-1.0, 0.0, 1e-15, 3.0}, 6, 0.0);
  EXPECT_EQ(occ.weights, (std::vector<double>{2.0, 2.0, 2.0, 0.0}));
  occ = occupy({-1.0, 0.0, 1e-6, 3.0}, 4, 0.0);
  EXPECT_EQ(occ.weights, (std::vector<double>{2.0, 2.0, 0.0, 0.0}));
}

TEST(ZeroTemperature, ZeroElectrons) {
  const std::vector<double> eps{-1.0, 1.0};
  const Occupations occ = occupy(eps, 0, 0.0);
  EXPECT_DOUBLE_EQ(total_weight(occ), 0.0);
  EXPECT_DOUBLE_EQ(occ.band_energy, 0.0);
}

TEST(Occupations, InvalidInputsThrow) {
  const std::vector<double> sorted{-1.0, 0.0, 1.0};
  EXPECT_THROW((void)occupy(sorted, -1, 0.0), Error);
  EXPECT_THROW((void)occupy(sorted, 7, 0.0), Error);  // > 2 per state
  const std::vector<double> unsorted{1.0, -1.0};
  EXPECT_THROW((void)occupy(unsorted, 2, 0.0), Error);
}

class FiniteTemperature : public ::testing::TestWithParam<double> {};

TEST_P(FiniteTemperature, ElectronCountConservedByBisection) {
  const double kelvin = GetParam();
  std::vector<double> eps;
  for (int k = 0; k < 40; ++k) eps.push_back(-5.0 + 0.25 * k);
  for (const int ne : {2, 11, 20, 39, 78}) {
    const Occupations occ = occupy(eps, ne, kelvin);
    EXPECT_NEAR(total_weight(occ), static_cast<double>(ne), 1e-8)
        << "T = " << kelvin << ", Ne = " << ne;
  }
}

INSTANTIATE_TEST_SUITE_P(Temperatures, FiniteTemperature,
                         ::testing::Values(50.0, 300.0, 1000.0, 3000.0));

TEST(FiniteTemperatureBehavior, WeightsAreMonotoneNonIncreasing) {
  std::vector<double> eps;
  for (int k = 0; k < 30; ++k) eps.push_back(-3.0 + 0.2 * k);
  const Occupations occ = occupy(eps, 20, 1000.0);
  for (std::size_t k = 1; k < occ.weights.size(); ++k) {
    EXPECT_LE(occ.weights[k], occ.weights[k - 1] + 1e-12);
  }
  for (const double w : occ.weights) {
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 2.0);
  }
}

TEST(FiniteTemperatureBehavior, HalfFillingAtSymmetricSpectrum) {
  // Symmetric spectrum, half filling: mu must sit at the center (0).
  std::vector<double> eps{-2.0, -1.0, 1.0, 2.0};
  const Occupations occ = occupy(eps, 4, 700.0);
  EXPECT_NEAR(occ.fermi_level, 0.0, 1e-6);
  EXPECT_NEAR(occ.weights[0] + occ.weights[3], 2.0, 1e-8);  // e-h symmetry
}

TEST(FiniteTemperatureBehavior, ReducesToStepFunctionAtLowT) {
  std::vector<double> eps{-2.0, -1.0, 1.0, 2.0};
  const Occupations cold = occupy(eps, 4, 1.0);
  EXPECT_NEAR(cold.weights[0], 2.0, 1e-9);
  EXPECT_NEAR(cold.weights[1], 2.0, 1e-9);
  EXPECT_NEAR(cold.weights[2], 0.0, 1e-9);
}

TEST(FiniteTemperatureBehavior, EntropyTermIsNonPositiveAndGrowsWithT) {
  std::vector<double> eps{-1.0, -0.5, -0.1, 0.1, 0.5, 1.0};
  const Occupations t1 = occupy(eps, 6, 500.0);
  const Occupations t2 = occupy(eps, 6, 2000.0);
  EXPECT_LE(t1.entropy_term, 0.0);
  EXPECT_LE(t2.entropy_term, t1.entropy_term);  // more negative when hotter
}

TEST(FiniteTemperatureBehavior, BandEnergyAboveGroundStateAtFiniteT) {
  std::vector<double> eps{-2.0, -1.0, 1.0, 2.0};
  const Occupations cold = occupy(eps, 4, 0.0);
  const Occupations hot = occupy(eps, 4, 4000.0);
  EXPECT_GT(hot.band_energy, cold.band_energy - 1e-12);
  // But the free energy E + (-TS) must stay below E_hot (variational).
  EXPECT_LE(hot.band_energy + hot.entropy_term, hot.band_energy);
}

/// Fermi smearing on the 216-atom carbon gate system (the spectrum every
/// accuracy CI gate runs on): electron-count conservation, the Mermin
/// entropy term in the free energy, and the T -> 0 limit reproducing the
/// integer-occupation aufbau path.
TEST(GateSystem, FermiSmearingOn216AtomDiamond) {
  const tb::TbModel model = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 3, 3, 3);
  structures::perturb(s, 0.02, 13);
  ASSERT_EQ(s.size(), 216u);
  NeighborList list;
  list.ensure(s.positions(), s.cell(), {model.cutoff(), 0.3});
  const linalg::Matrix h = build_hamiltonian(model, s, list);
  const linalg::SymmetricEigenSolution sol = linalg::eigh(h);
  const int ne = s.total_valence_electrons();
  ASSERT_EQ(ne, 4 * 216);

  const Occupations cold = occupy(sol.values, ne, 0.0);
  for (const double kelvin : {100.0, 300.0, 2000.0}) {
    const Occupations occ = occupy(sol.values, ne, kelvin);
    // Sum-to-N: the bisected chemical potential conserves the count.
    EXPECT_NEAR(total_weight(occ), static_cast<double>(ne), 1e-7)
        << "T = " << kelvin;
    // The Mermin term is nonpositive and the free energy variational:
    // E - TS <= E at the same occupations.
    EXPECT_LE(occ.entropy_term, 0.0);
    EXPECT_LE(occ.band_energy + occ.entropy_term, occ.band_energy + 1e-12);
    // Smearing can only raise the band energy above the aufbau minimum.
    EXPECT_GE(occ.band_energy, cold.band_energy - 1e-9);
  }

  // T -> 0 limit: diamond is gapped, so low-temperature smearing must
  // reproduce the integer-occupation path exactly (weights, band energy,
  // vanishing entropy).
  const Occupations t0 = occupy(sol.values, ne, 1.0);
  EXPECT_NEAR(t0.band_energy, cold.band_energy, 1e-8);
  EXPECT_NEAR(t0.entropy_term, 0.0, 1e-10);
  for (std::size_t k = 0; k < t0.weights.size(); ++k) {
    EXPECT_NEAR(t0.weights[k], cold.weights[k], 1e-9) << "state " << k;
  }
}

TEST(FiniteTemperatureBehavior, DegenerateLevelsShareOccupation) {
  // Two degenerate states at the Fermi level with one electron pair left:
  // each must receive half of it.
  std::vector<double> eps{-1.0, 0.0, 0.0, 5.0};
  const Occupations occ = occupy(eps, 4, 300.0);
  EXPECT_NEAR(occ.weights[1], occ.weights[2], 1e-10);
  EXPECT_NEAR(occ.weights[1], 1.0, 1e-6);
}

}  // namespace
}  // namespace tbmd::tb
