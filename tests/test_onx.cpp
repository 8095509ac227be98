// Tests for the O(N) layer: blocked Hamiltonian assembly,
// Palser-Manolopoulos purification vs exact diagonalization, the
// OrderNCalculator against TightBindingCalculator, and O(N) forces against
// finite differences of the O(N) energy.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "src/linalg/blas.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/onx/purification.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/util/random.hpp"

namespace tbmd::onx {
namespace {

/// Blocked Hamiltonian straight from the model, as the engine assembles it.
BlockSparseMatrix block_hamiltonian(const tb::TbModel& m, const System& s) {
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  return build_block_hamiltonian(m, s, table);
}

// --- blocked Hamiltonian -------------------------------------------------

TEST(BlockHamiltonian, MatchesDenseAssembly) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.05, 77);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const linalg::Matrix dense = tb::build_hamiltonian(m, s, list);
  const BlockSparseMatrix h = block_hamiltonian(m, s);
  EXPECT_LT(linalg::max_abs(h.to_dense() - dense), 1e-13);
  EXPECT_LT(h.fill_fraction(), 0.5);  // genuinely sparse
}

// --- purification --------------------------------------------------------

TEST(Purification, MatchesExactDensityMatrixOnGappedSystem) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const linalg::Matrix hd = tb::build_hamiltonian(m, s, list);
  const int nocc = s.total_valence_electrons() / 2;
  PurificationOptions opt;
  opt.drop_tolerance = 0.0;  // exact arithmetic
  const PurificationResult pm =
      palser_manolopoulos(BlockSparseMatrix::from_dense(hd, 4), nocc, opt);
  ASSERT_TRUE(pm.converged);

  // Compare against rho/2 from diagonalization.
  const auto eig = linalg::eigh(hd);
  const auto occ = tb::occupy(eig.values, s.total_valence_electrons(), 0.0);
  const auto rho = tb::density_matrix(eig.vectors, occ.weights);
  EXPECT_LT(linalg::max_abs(pm.density.to_dense() - rho * 0.5), 1e-6);
  EXPECT_NEAR(pm.band_energy, occ.band_energy, 1e-6);
}

TEST(Purification, TraceConservedThroughoutIteration) {
  const tb::TbModel m = tb::gsp_silicon();
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  const int nocc = s.total_valence_electrons() / 2;
  const PurificationResult pm =
      palser_manolopoulos(block_hamiltonian(m, s), nocc, {});
  EXPECT_TRUE(pm.converged);
  EXPECT_NEAR(pm.density.trace(), static_cast<double>(nocc), 1e-6);
}

TEST(Purification, IdempotentResult) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  const PurificationResult pm = palser_manolopoulos(
      block_hamiltonian(m, s), s.total_valence_electrons() / 2, {});
  ASSERT_TRUE(pm.converged);
  const linalg::Matrix p = pm.density.to_dense();
  EXPECT_NEAR(linalg::trace(p) - linalg::trace(linalg::matmul(p, p)), 0.0,
              1e-5);
}

class PurificationTruncation : public ::testing::TestWithParam<double> {};

TEST_P(PurificationTruncation, EnergyErrorBoundedByTolerance) {
  const double drop = GetParam();
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const linalg::Matrix hd = tb::build_hamiltonian(m, s, list);

  const auto eig = linalg::eigvalsh(hd);
  const auto occ = tb::occupy(eig, s.total_valence_electrons(), 0.0);

  PurificationOptions opt;
  opt.drop_tolerance = drop;
  const PurificationResult pm =
      palser_manolopoulos(BlockSparseMatrix::from_dense(hd, 4),
                          s.total_valence_electrons() / 2, opt);
  ASSERT_TRUE(pm.converged) << "drop = " << drop;
  // Energy error per atom grows with truncation but stays controlled.
  const double err = std::fabs(pm.band_energy - occ.band_energy) /
                     static_cast<double>(s.size());
  EXPECT_LT(err, 1e4 * drop + 1e-7) << "drop = " << drop;
}

INSTANTIATE_TEST_SUITE_P(DropTolerances, PurificationTruncation,
                         ::testing::Values(0.0, 1e-8, 1e-6));

// --- OrderNCalculator ----------------------------------------------------

TEST(OrderNCalculator, MatchesExactEnergyAndForces) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.04, 91);

  tb::TightBindingCalculator exact(m);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-8);
  OrderNCalculator fast(m, opt);

  const ForceResult re = exact.compute(s);
  const ForceResult rf = fast.compute(s);
  EXPECT_TRUE(fast.last_purification().converged);
  EXPECT_NEAR(re.energy, rf.energy, 1e-4 * s.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    worst = std::max(worst, norm(re.forces[i] - rf.forces[i]));
  }
  EXPECT_LT(worst, 5e-3);
}

// Forces are -dE/dx of the energy the O(N) engine itself reports: central
// differences (h = 1e-5 A) on atoms 0, N/2 and N-1 of the two periodic
// TbForceConsistency cases.  Untruncated (drop 0) the purified density is
// the exact projector, so the gap is finite-difference noise; at the
// library default drop 1e-7 it measures how far truncation moves E off the
// surface the Hellmann-Feynman contraction differentiates.  Coarser drops
// are not gated: at 1e-6 on C the difference quotient itself changes with
// h (truncation makes E non-smooth there).
class OrderNForceConsistency
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(OrderNForceConsistency, AnalyticMatchesFiniteDifference) {
  const auto [scenario, drop] = GetParam();
  const bool carbon = scenario == 0;
  const tb::TbModel m = carbon ? tb::xwch_carbon() : tb::gsp_silicon();
  System s = carbon ? structures::diamond(Element::C, 3.567, 2, 2, 2)
                    : structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(s, carbon ? 0.08 : 0.10, carbon ? 7 : 13);

  OrderNCalculator calc(m, CalculatorSpec::order_n(drop));
  const ForceResult r0 = calc.compute(s);
  ASSERT_TRUE(calc.last_purification().converged);
  const double bound = drop == 0.0 ? 1e-6 : 5e-4;
  constexpr double h = 1e-5;
  for (const std::size_t atom : {std::size_t{0}, s.size() / 2, s.size() - 1}) {
    for (int axis = 0; axis < 3; ++axis) {
      const Vec3 dr{axis == 0 ? h : 0.0, axis == 1 ? h : 0.0,
                    axis == 2 ? h : 0.0};
      s.positions()[atom] += dr;
      const double ep = calc.compute(s).energy;
      s.positions()[atom] -= 2.0 * dr;
      const double em = calc.compute(s).energy;
      s.positions()[atom] += dr;
      EXPECT_NEAR(r0.forces[atom][axis], -(ep - em) / (2.0 * h), bound)
          << "atom " << atom << " axis " << axis;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PeriodicCases, OrderNForceConsistency,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0.0, 1e-7)),
    [](const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "C64" : "Si64") +
             (std::get<1>(info.param) == 0.0 ? "_drop0" : "_drop1em7");
    });

TEST(OrderNCalculator, DensityMatrixFillFractionDecreasesWithSize) {
  // Nearsightedness: with truncation, the fill *fraction* of the density
  // matrix decreases as the system grows (the retained bandwidth is set by
  // the physical decay length, not by N).  The blocked engine truncates at
  // whole-tile granularity, so the fraction only starts falling once atom
  // pairs (not just individual orbital pairs) leave the decay range: the
  // 2- and 3-cell boxes are still block-dense, the 4-cell box is not.
  const tb::TbModel m = tb::xwch_carbon();
  CalculatorSpec opt = CalculatorSpec::order_n(1e-4);

  auto fill_of = [&](int nx) {
    OrderNCalculator calc(m, opt);
    System s = structures::diamond(Element::C, 3.567, nx, nx, nx);
    (void)calc.compute(s);
    const auto& p = calc.last_purification();
    EXPECT_TRUE(p.converged) << "cells " << nx;
    return p.fill_fraction;
  };

  const double fill_small = fill_of(3);  // 864 orbitals (block-dense)
  const double fill_big = fill_of(4);    // 2048 orbitals
  EXPECT_LT(fill_big, 0.85 * fill_small);
}

TEST(OrderNCalculator, WarmStepsPerformZeroSymbolicWork) {
  // With an unchanged bond topology every SpMM of a repeated step must
  // validate against the cached pattern: the warm call's report shows
  // numeric reuses only.
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.03, 17);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  OrderNCalculator calc(m, opt);

  (void)calc.compute(s);
  const StepReport cold = calc.step_report();
  EXPECT_TRUE(cold.neighbor_rebuilt);
  EXPECT_GT(cold.symbolic_builds, 0u);

  (void)calc.compute(s);
  const StepReport& warm = calc.step_report();
  EXPECT_FALSE(warm.neighbor_rebuilt);
  EXPECT_EQ(warm.topology, cold.topology);
  EXPECT_EQ(warm.symbolic_builds, 0u);
  EXPECT_GT(warm.numeric_reuses, 0u);
}

TEST(OrderNCalculator, StepReportReadsZeroWhereTheEngineDoesNotRun) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.03, 17);
  OrderNCalculator calc(m, CalculatorSpec::order_n(1e-6));
  (void)calc.compute(s);
  const StepReport& r = calc.step_report();
  EXPECT_GT(r.phase_seconds(Phase::kPurification), 0.0);
  EXPECT_EQ(r.phase_seconds(Phase::kDiagonalize), 0.0);
  EXPECT_EQ(r.phase_seconds(Phase::kDensity), 0.0);
  // Exact-engine counter and cached-bounds fields (the spec leaves
  // cache_spectral_bounds off).
  EXPECT_EQ(r.eigenpairs, 0u);
  EXPECT_EQ(r.bounds_refreshed, 0u);
  EXPECT_EQ(r.spectral_bounds.lo, 0.0);
  EXPECT_EQ(r.spectral_bounds.hi, 0.0);
  EXPECT_EQ(r.domains, 1u);
  EXPECT_GT(r.topology, 0u);
  EXPECT_GT(r.workspace_bytes, 0u);
}

TEST(OrderNCalculator, TopologyChangeInvalidatesPatternCache) {
  // Moving an atom across the hopping cutoff mid-trajectory changes the
  // Hamiltonian pattern: the bond-table stamp must bump and the next step
  // must rebuild its symbolic patterns instead of reusing stale ones.
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  OrderNCalculator calc(m, opt);

  (void)calc.compute(s);
  (void)calc.compute(s);  // warm the cache
  const std::uint64_t topo = calc.step_report().topology;
  const ForceResult before = calc.compute(s);
  EXPECT_EQ(calc.step_report().symbolic_builds, 0u);

  System moved = s;
  moved.positions()[3] += Vec3{0.9, 0.7, 0.5};  // crosses the cutoff shell
  const ForceResult after = calc.compute(moved);
  EXPECT_NE(calc.step_report().topology, topo);
  EXPECT_GT(calc.step_report().symbolic_builds, 0u);
  // The move genuinely changed the electronic structure.
  EXPECT_NE(before.energy, after.energy);
  EXPECT_TRUE(calc.last_purification().converged);
}

TEST(OrderNCalculator, ColdAndWarmPatternNveSlicesAreBitIdentical) {
  // The warm path must not change physics at all: an NVE slice computed
  // with cross-step pattern reuse produces bit-identical energies to one
  // that rebuilds every pattern from scratch each step (the numeric sweep
  // is shared, so this is an equality, not a tolerance).
  const tb::TbModel m = tb::xwch_carbon();
  const long steps = 4;

  auto trajectory = [&](bool reuse) {
    System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
    structures::perturb(s, 0.02, 23);
    md::maxwell_boltzmann_velocities(s, 300.0, 5);
    CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
    opt.reuse_patterns = reuse;
    OrderNCalculator calc(m, opt);
    md::MdDriver driver(s, calc, {1.0});
    std::vector<double> energies;
    driver.run(steps, [&](const md::MdDriver& d, long) {
      energies.push_back(d.total_energy());
    });
    return energies;
  };

  const std::vector<double> warm = trajectory(true);
  const std::vector<double> cold = trajectory(false);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i], cold[i]) << "step " << i;
  }
}

TEST(OrderNCalculator, ReusedAfterAtomCountShrinkEqualsFresh) {
  // A calculator that computed a larger system first keeps its workspace
  // sized for it; a smaller system must still come out exactly as from a
  // fresh calculator.
  const tb::TbModel m = tb::xwch_carbon();
  // Loose tolerance keeps the big system cheap (the 2-cell box is the
  // smallest admissible periodic supercell, so "small" cannot go below 64
  // atoms).
  CalculatorSpec opt = CalculatorSpec::order_n(1e-4);

  System big = structures::diamond(Element::C, 3.567, 3, 3, 3);    // 216
  System small = structures::diamond(Element::C, 3.567, 2, 2, 2);  // 64

  OrderNCalculator fresh(m, opt);
  OrderNCalculator calc(m, opt);
  (void)calc.compute(big);
  const ForceResult rs = calc.compute(small);
  const ForceResult rf = fresh.compute(small);
  EXPECT_DOUBLE_EQ(rs.energy, rf.energy);
}

TEST(OrderNCalculator, RejectsOddElectronCount) {
  const tb::TbModel m = tb::xwch_carbon();
  OrderNCalculator calc(m);
  System s = structures::dimer(Element::C, 1.4);
  s.set_species(1, Element::B);  // 4 + 3 = 7 electrons -- unsupported
  // Species check fires first for non-carbon, so expect an Error either way.
  EXPECT_THROW((void)calc.compute(s), Error);
}

TEST(OrderNCalculator, RejectsExactSpecAndElectronicTemperature) {
  // The purification loop fills an integer number of states at T_el = 0:
  // neither an exact-engine spec nor a smearing request may reach it.
  const tb::TbModel m = tb::xwch_carbon();
  EXPECT_THROW((void)OrderNCalculator(m, CalculatorSpec::exact()), Error);
  CalculatorSpec hot = CalculatorSpec::order_n();
  hot.electronic_temperature = 300.0;
  EXPECT_THROW((void)OrderNCalculator(m, hot), Error);
  EXPECT_THROW((void)make_calculator(m, hot), Error);
}

}  // namespace
}  // namespace tbmd::onx
