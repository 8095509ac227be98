// Tests for the electronic-structure core: density matrix properties,
// Hellmann-Feynman force consistency with finite differences, repulsive
// terms, and the assembled TightBindingCalculator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/linalg/blas.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/fullerene.hpp"
#include "src/structures/nanotube.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/radial.hpp"
#include "src/tb/repulsive.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/util/random.hpp"

namespace tbmd::tb {
namespace {

TEST(DensityMatrix, TraceEqualsElectronCount) {
  const TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.03, 5);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const auto h = build_hamiltonian(m, s, list);
  const auto eig = linalg::eigh(h);
  const int ne = s.total_valence_electrons();
  const auto occ = occupy(eig.values, ne, 0.0);
  const auto rho = density_matrix(eig.vectors, occ.weights);
  EXPECT_NEAR(linalg::trace(rho), static_cast<double>(ne), 1e-8);
}

TEST(DensityMatrix, BandEnergyEqualsTraceRhoH) {
  const TbModel m = gsp_silicon();
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(s, 0.05, 6);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const auto h = build_hamiltonian(m, s, list);
  const auto eig = linalg::eigh(h);
  const auto occ = occupy(eig.values, s.total_valence_electrons(), 0.0);
  const auto rho = density_matrix(eig.vectors, occ.weights);
  EXPECT_NEAR(linalg::trace_of_product(rho, h), occ.band_energy, 1e-7);
}

TEST(DensityMatrix, IdempotentAtZeroTemperature) {
  // rho/2 is a projector when every weight is 0 or 2.
  const TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.03, 9);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const auto eig = linalg::eigh(build_hamiltonian(m, s, list));
  const auto occ = occupy(eig.values, s.total_valence_electrons(), 0.0);
  const auto rho = density_matrix(eig.vectors, occ.weights);
  const auto p = rho * 0.5;
  const auto p2 = linalg::matmul(p, p);
  EXPECT_LT(linalg::max_abs(p2 - p), 1e-8);
}

TEST(DensityMatrix, RejectsBadInput) {
  linalg::Matrix c(4, 4);
  std::vector<double> w{1.0, 1.0, 1.0};  // wrong length
  EXPECT_THROW((void)density_matrix(c, w), Error);
  std::vector<double> wneg{1.0, -0.5, 0.0, 0.0};
  EXPECT_THROW((void)density_matrix(c, wneg), Error);
}

TEST(DensityMatrix, RejectsNonFiniteWeights) {
  // Regression: NaN occupations (e.g. from a diverged Fermi-level search)
  // used to propagate silently into rho; they must be rejected up front.
  linalg::Matrix c = linalg::Matrix::identity(4);
  std::vector<double> wnan{2.0, std::nan(""), 0.0, 0.0};
  EXPECT_THROW((void)density_matrix(c, wnan), Error);
  std::vector<double> winf{2.0, std::numeric_limits<double>::infinity(), 0.0,
                           0.0};
  EXPECT_THROW((void)density_matrix(c, winf), Error);
}

// --- finite-difference force validation --------------------------------

double fd_force(Calculator& calc, System& s, std::size_t atom, int axis,
                double h = 1e-5) {
  Vec3 dr{axis == 0 ? h : 0.0, axis == 1 ? h : 0.0, axis == 2 ? h : 0.0};
  s.positions()[atom] += dr;
  const double ep = calc.compute(s).energy;
  s.positions()[atom] -= 2.0 * dr;
  const double em = calc.compute(s).energy;
  s.positions()[atom] += dr;
  return -(ep - em) / (2.0 * h);
}

struct ForceCase {
  const char* name;
  TbModel model;
  System system;
};

class TbForceConsistency : public ::testing::TestWithParam<int> {};

TEST_P(TbForceConsistency, AnalyticMatchesFiniteDifference) {
  const int scenario = GetParam();
  TbModel model = scenario < 2 ? xwch_carbon() : gsp_silicon();
  System s = [&] {
    switch (scenario) {
      case 0: {  // perturbed periodic diamond carbon
        System sys = structures::diamond(Element::C, 3.567, 2, 2, 2);
        structures::perturb(sys, 0.08, 7);
        return sys;
      }
      case 1: {  // C60 molecule (cluster, curved bonding)
        System sys = structures::c60();
        structures::perturb(sys, 0.04, 11);
        return sys;
      }
      case 2: {  // perturbed periodic silicon
        System sys = structures::diamond(Element::Si, 5.431, 2, 2, 2);
        structures::perturb(sys, 0.10, 13);
        return sys;
      }
      default: {  // small silicon cluster
        System sys = structures::diamond(Element::Si, 5.431, 2, 2, 2);
        System cluster;
        for (std::size_t i = 0; i < 10; ++i) {
          cluster.add_atom(Element::Si, sys.positions()[i]);
        }
        structures::perturb(cluster, 0.05, 17);
        return cluster;
      }
    }
  }();

  TightBindingCalculator calc(model);
  const ForceResult r0 = calc.compute(s);

  for (const std::size_t atom : {std::size_t{0}, s.size() / 2, s.size() - 1}) {
    for (int axis = 0; axis < 3; ++axis) {
      const double fd = fd_force(calc, s, atom, axis);
      const double an = axis == 0   ? r0.forces[atom].x
                        : axis == 1 ? r0.forces[atom].y
                                    : r0.forces[atom].z;
      EXPECT_NEAR(an, fd, 5e-5) << "atom " << atom << " axis " << axis;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, TbForceConsistency,
                         ::testing::Values(0, 1, 2, 3));

TEST(TbForces, SumToZeroOnIsolatedCluster) {
  // Newton's third law: no external field, so total force vanishes.
  TbModel m = xwch_carbon();
  System s = structures::c60();
  structures::perturb(s, 0.06, 19);
  TightBindingCalculator calc(m);
  const ForceResult r = calc.compute(s);
  Vec3 total{};
  for (const Vec3& f : r.forces) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-9);
}

TEST(TbForces, VanishAtEquilibriumLattice) {
  // In the perfect crystal every atom is a symmetry point: forces ~ 0.
  TbModel m = gsp_silicon();
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  TightBindingCalculator calc(m);
  const ForceResult r = calc.compute(s);
  for (const Vec3& f : r.forces) {
    EXPECT_NEAR(norm(f), 0.0, 1e-8);
  }
}

TEST(TbForces, FiniteTemperatureFreeEnergyConsistent) {
  // With Fermi smearing the calculator reports the Mermin free energy;
  // Hellmann-Feynman forces must be consistent with ITS derivative.
  TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.06, 23);
  CalculatorSpec opt;
  opt.electronic_temperature = 2000.0;
  TightBindingCalculator calc(m, opt);
  const ForceResult r0 = calc.compute(s);
  const double fd = fd_force(calc, s, 3, 1);
  EXPECT_NEAR(r0.forces[3].y, fd, 5e-4);
}

// --- repulsive term ------------------------------------------------------

TEST(Repulsive, PairSumDimerAnalytic) {
  const TbModel m = gsp_silicon();
  const double r = 2.3;
  System s = structures::dimer(Element::Si, r);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const RepulsiveResult rep = repulsive_energy_forces(m, s, list);
  const PairParams& pp = m.pair(0, 0);
  const double phi = pp.phi0 * evaluate_scaling(pp.repulsive, r).value;
  EXPECT_NEAR(rep.energy, phi, 1e-12);
  // Repulsive forces push the atoms apart along the bond.
  EXPECT_GT(dot(rep.forces[1] - rep.forces[0], s.displacement(0, 1)), 0.0);
}

TEST(Repulsive, EmbeddedPolynomialMatchesManualSum) {
  const TbModel m = xwch_carbon();
  System s = structures::dimer(Element::C, 1.5);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const RepulsiveResult rep = repulsive_energy_forces(m, s, list);
  const PairParams& pp = m.pair(0, 0);
  const double phi = pp.phi0 * evaluate_scaling(pp.repulsive, 1.5).value;
  const double f_of_x = evaluate_polynomial(m.embed_coeff, phi).value;
  EXPECT_NEAR(rep.energy, 2.0 * f_of_x, 1e-12);  // one bond seen by 2 atoms
}

TEST(Repulsive, ZeroBeyondCutoff) {
  const TbModel m = gsp_silicon();
  System s =
      structures::dimer(Element::Si, m.pair(0, 0).repulsive.r_cut + 0.5);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff() + 1.0, 0.3});
  const RepulsiveResult rep = repulsive_energy_forces(m, s, list);
  EXPECT_DOUBLE_EQ(rep.energy, 0.0);
  EXPECT_NEAR(norm(rep.forces[0]), 0.0, 1e-15);
}

// --- assembled calculator ------------------------------------------------

TEST(TbCalculator, EnergyDecomposesIntoBandPlusRepulsive) {
  TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  TightBindingCalculator calc(m);
  const ForceResult r = calc.compute(s);
  EXPECT_NEAR(r.energy, r.band_energy + r.repulsive_energy, 1e-10);
  EXPECT_LT(r.band_energy, 0.0);
  EXPECT_GT(r.repulsive_energy, 0.0);
  EXPECT_EQ(r.eigenvalues.size(), 4 * s.size());
  // mu must sit strictly inside the gap, between HOMO and LUMO.
  const std::size_t homo = s.total_valence_electrons() / 2 - 1;
  EXPECT_GT(r.fermi_level, r.eigenvalues[homo] - 1e-9);
  EXPECT_LT(r.fermi_level, r.eigenvalues[homo + 1] + 1e-9);
}

TEST(TbCalculator, DiamondIsBoundRelativeToFreeAtoms) {
  // Free-atom reference energy of the XWCH model: 2 e_s + 2 e_p + f(0).
  TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  TightBindingCalculator calc(m);
  const double e_atom_free = 2.0 * m.species[0].e_s + 2.0 * m.species[0].e_p +
                             evaluate_polynomial(m.embed_coeff, 0.0).value;
  const double e_per_atom = calc.compute(s).energy / s.size();
  const double cohesive = e_atom_free - e_per_atom;
  // XWCH diamond cohesive energy is ~7.4 eV/atom (paper value); allow slack
  // for the taper substitution.
  EXPECT_GT(cohesive, 5.0);
  EXPECT_LT(cohesive, 10.0);
}

TEST(TbCalculator, GrapheneAndDiamondNearlyDegenerate) {
  TbModel m = xwch_carbon();
  TightBindingCalculator calc(m);
  System d = structures::diamond(Element::C, 3.567, 2, 2, 2);
  System g = structures::graphene(Element::C, 1.42, 3, 2);
  const double ed = calc.compute(d).energy / d.size();
  const double eg = calc.compute(g).energy / g.size();
  // Carbon: the two phases are within ~0.5 eV/atom of each other.
  EXPECT_NEAR(ed, eg, 0.5);
}

TEST(TbCalculator, StepReportTimesThePhasesOfOneCall) {
  TbModel m = gsp_silicon();
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  TightBindingCalculator calc(m);
  (void)calc.compute(s);
  EXPECT_TRUE(calc.step_report().neighbor_rebuilt);
  (void)calc.compute(s);
  const StepReport& r = calc.step_report();
  EXPECT_FALSE(r.neighbor_rebuilt);
  for (const Phase phase :
       {Phase::kNeighbors, Phase::kBondTable, Phase::kHamiltonian,
        Phase::kDiagonalize, Phase::kDensity, Phase::kForces,
        Phase::kRepulsive}) {
    EXPECT_GE(r.phase_seconds(phase), 0.0) << phase_name(phase);
  }
  EXPECT_GT(r.phase_seconds(Phase::kDiagonalize), 0.0);
  EXPECT_GT(r.total_seconds(), 0.0);
  // The exact engine never purifies, and the O(N) counters stay zero.
  EXPECT_EQ(r.phase_seconds(Phase::kPurification), 0.0);
  EXPECT_EQ(r.symbolic_builds, 0u);
  EXPECT_EQ(r.numeric_reuses, 0u);
  EXPECT_EQ(r.topology, 0u);
  EXPECT_EQ(r.domains, 0u);
  EXPECT_EQ(r.bounds_refreshed, 0u);
  EXPECT_EQ(r.spectral_bounds.lo, 0.0);
  EXPECT_EQ(r.spectral_bounds.hi, 0.0);
  EXPECT_EQ(r.workspace_bytes, 0u);
}

TEST(TbCalculator, StepReportCountsTheEigenpairsOfOneCall) {
  // Si64: 256 orbitals, 256 electrons -> HOMO index 127, so the
  // eigenvector window is states 0..128 (occupied + LUMO).
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  CalculatorSpec partial;
  partial.report_eigenvalues = false;
  TightBindingCalculator calc(gsp_silicon(), partial);
  (void)calc.compute(s);
  EXPECT_EQ(calc.step_report().eigenpairs, 129u);
  // Per call, not cumulative.
  (void)calc.compute(s);
  EXPECT_EQ(calc.step_report().eigenpairs, 129u);

  // Reporting the spectrum copies all 256 values out of the same solve.
  TightBindingCalculator reporting(gsp_silicon());
  const ForceResult r = reporting.compute(s);
  EXPECT_EQ(reporting.step_report().eigenpairs, 129u);
  ASSERT_EQ(r.eigenvalues.size(), 256u);
  EXPECT_TRUE(std::is_sorted(r.eigenvalues.begin(), r.eigenvalues.end()));

  // kFull solves every state.
  CalculatorSpec full_spec;
  full_spec.spectrum = SpectrumPolicy::kFull;
  TightBindingCalculator full(gsp_silicon(), full_spec);
  (void)full.compute(s);
  EXPECT_EQ(full.step_report().eigenpairs, 256u);

  // At 1000 K the Fermi tail widens the window, still in one solve: a
  // fresh calculator's first call on perturbed Si64 solves 179 states.
  System hot = s;
  structures::perturb(hot, 0.05, 21);
  CalculatorSpec hot_spec = partial;
  hot_spec.electronic_temperature = 1000.0;
  TightBindingCalculator fresh(gsp_silicon(), hot_spec);
  (void)fresh.compute(hot);
  EXPECT_GT(fresh.step_report().eigenpairs, 129u);
  EXPECT_LE(fresh.step_report().eigenpairs, 256u);
}

TEST(TbCalculator, WarmCalculatorMatchesFreshOneBitForBit) {
  // The eigenvector window comes from this call's spectrum alone, so a
  // calculator that solved another geometry first returns the same bits as
  // a fresh one.  At 2500 K the Fermi tail sets the window.
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  System other = s;
  structures::perturb(s, 0.05, 21);
  structures::perturb(other, 0.2, 22);
  CalculatorSpec spec;
  spec.electronic_temperature = 2500.0;
  spec.report_eigenvalues = false;
  TightBindingCalculator fresh(gsp_silicon(), spec);
  TightBindingCalculator warm(gsp_silicon(), spec);
  (void)warm.compute(other);
  const ForceResult a = fresh.compute(s);
  const ForceResult b = warm.compute(s);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.fermi_level, b.fermi_level);
  ASSERT_EQ(a.forces.size(), b.forces.size());
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    EXPECT_EQ(a.forces[i], b.forces[i]) << "atom " << i;
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(a.virial(r, c), b.virial(r, c));
  }
}

TEST(TbCalculator, DegenerateFermiLevelKeepsForcesContinuous) {
  // The ideal open (8,0) tube (cnt_exact_md's start) has a two-fold level
  // at the Fermi level, split only by rounding.  Filling whichever of its
  // vectors rounding puts first would make the forces jump (1.7e-2 eV/A
  // for a 1e-12 A move of one atom); with the level's electrons shared
  // the change is rounding-sized (2.9e-10 eV/A).
  System s = structures::nanotube(Element::C, 8, 0, 1.42, 6,
                                  /*periodic=*/false);
  CalculatorSpec spec;
  spec.report_eigenvalues = false;
  TightBindingCalculator calc(xwch_carbon(), spec);
  const ForceResult a = calc.compute(s);
  s.positions()[0].x += 1e-12;
  const ForceResult b = calc.compute(s);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    const Vec3 d = b.forces[i] - a.forces[i];
    worst = std::max({worst, std::fabs(d.x), std::fabs(d.y), std::fabs(d.z)});
  }
  EXPECT_LE(worst, 1e-8);
}

TEST(TbCalculator, EmptySystem) {
  TightBindingCalculator calc(xwch_carbon());
  System s;
  const ForceResult r = calc.compute(s);
  EXPECT_DOUBLE_EQ(r.energy, 0.0);
  EXPECT_TRUE(r.forces.empty());
}

TEST(TbCalculator, EigenvalueReportingCanBeDisabled) {
  CalculatorSpec opt;
  opt.report_eigenvalues = false;
  TightBindingCalculator calc(xwch_carbon(), opt);
  System s = structures::dimer(Element::C, 1.4);
  const ForceResult r = calc.compute(s);
  EXPECT_TRUE(r.eigenvalues.empty());
}

TEST(TbCalculator, RejectsOrderNSpec) {
  EXPECT_THROW((void)TightBindingCalculator(xwch_carbon(),
                                            CalculatorSpec::order_n()),
               Error);
}

}  // namespace
}  // namespace tbmd::tb
