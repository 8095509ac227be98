// Cross-module integration tests: complete TBMD workflows exercising the
// public API end to end, mirroring the paper's simulation protocols at
// miniature scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/analysis/bonds.hpp"
#include "src/analysis/edos.hpp"
#include "src/analysis/msd.hpp"
#include "src/analysis/rdf.hpp"
#include "src/io/xyz.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/thermostat.hpp"
#include "src/md/velocities.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/relax/relax.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/fullerene.hpp"
#include "src/structures/nanotube.hpp"
#include "src/tb/tb_calculator.hpp"

namespace tbmd {
namespace {

TEST(Workflow, NvtTbmdSiliconStaysCrystallineAt300K) {
  // Canonical MD at room temperature must keep diamond silicon intact:
  // all atoms 4-coordinated, bounded MSD, temperature near target.
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s, 300.0, 1);
  tb::TightBindingCalculator calc(tb::gsp_silicon());
  md::MdOptions opt;
  opt.dt = 1.0;
  opt.thermostat = md::ThermostatSpec::nose_hoover(300.0, 50.0, 2);
  md::MdDriver driver(s, calc, std::move(opt));

  analysis::MsdTracker msd(s);
  driver.run(120);

  EXPECT_LT(msd.msd(s), 0.3);  // thermal wiggle only, no diffusion
  const auto coord = analysis::coordination_numbers(s, 2.8);
  for (const int c : coord) EXPECT_EQ(c, 4);
  EXPECT_GT(s.temperature(), 100.0);
  EXPECT_LT(s.temperature(), 600.0);
}

TEST(Workflow, NveTbmdConservedQuantityTracksPaperCriterion) {
  // The paper monitors the extended-system conserved quantity and reports
  // fluctuations < 1e-4 relative over the run; test the NVE analog.
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s, 500.0, 2);
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  md::MdDriver driver(s, calc, {0.5});

  const double e0 = driver.total_energy();
  double worst = 0.0;
  driver.run(60, [&](const md::MdDriver& d, long) {
    worst = std::max(worst, std::fabs(d.total_energy() - e0));
  });
  EXPECT_LT(worst / std::fabs(e0), 1e-4);
}

TEST(Workflow, GrapheneSheetSurvivesRoomTemperatureMd) {
  System s = structures::graphene(Element::C, 1.42, 3, 2);
  md::maxwell_boltzmann_velocities(s, 300.0, 3);
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  md::MdOptions opt;
  opt.dt = 1.0;
  opt.thermostat = md::ThermostatSpec::nose_hoover(300.0, 50.0, 2);
  md::MdDriver driver(s, calc, std::move(opt));
  driver.run(100);
  const auto coord = analysis::coordination_numbers(s, 1.75);
  for (const int c : coord) EXPECT_EQ(c, 3);  // honeycomb intact
}

TEST(Workflow, RelaxThenMdRoundTripThroughXyz) {
  // relax -> write -> read -> MD: the full pipeline a user would run.
  System s = structures::c60();
  structures::perturb(s, 0.05, 4);
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  relax::RelaxOptions ropt;
  ropt.force_tolerance = 2e-2;
  ropt.max_iterations = 2000;
  const auto rr = relax::fire_relax(s, calc, ropt);
  ASSERT_TRUE(rr.converged);

  std::stringstream ss;
  io::write_xyz(ss, s, "relaxed c60");
  System loaded;
  ASSERT_TRUE(io::read_xyz(ss, loaded));

  md::maxwell_boltzmann_velocities(loaded, 300.0, 5);
  tb::TightBindingCalculator calc2(tb::xwch_carbon());
  md::MdDriver driver(loaded, calc2, {1.0});
  driver.run(30);
  EXPECT_EQ(analysis::bond_count(loaded, 1.44 * 1.15), 90u);  // cage intact
}

TEST(Workflow, FrozenEdgeNanotubeMd) {
  // The paper-era trick of freezing one tube end during MD: frozen atoms
  // must stay exactly put while the free end thermalizes.
  System s = structures::nanotube(Element::C, 8, 0, 1.42, 2, false);
  // Freeze the bottom ring (z < 0.5).
  std::vector<Vec3> frozen_pos;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.positions()[i].z < 0.5) {
      s.set_frozen(i, true);
      frozen_pos.push_back(s.positions()[i]);
    }
  }
  ASSERT_FALSE(frozen_pos.empty());

  md::maxwell_boltzmann_velocities(s, 500.0, 6);
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  md::MdOptions opt;
  opt.dt = 1.0;
  opt.thermostat = md::ThermostatSpec::nose_hoover(500.0, 40.0, 2);
  md::MdDriver driver(s, calc, std::move(opt));
  driver.run(60);

  std::size_t q = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.frozen(i)) {
      EXPECT_EQ(s.positions()[i], frozen_pos[q++]);
    }
  }
}

TEST(Workflow, ElectronicStructureOfGrapheneVsDiamond) {
  // Diamond is a wide-gap insulator in the TB model; graphene's pi system
  // closes most of that gap.  The gap ordering must come out right.
  tb::TightBindingCalculator calc(tb::xwch_carbon());

  System diamond = structures::diamond(Element::C, 3.567, 2, 2, 2);
  const auto rd = calc.compute(diamond);
  const double gap_diamond =
      analysis::homo_lumo_gap(rd.eigenvalues, diamond.total_valence_electrons());

  System graphene = structures::graphene(Element::C, 1.42, 3, 3);
  const auto rg = calc.compute(graphene);
  const double gap_graphene = analysis::homo_lumo_gap(
      rg.eigenvalues, graphene.total_valence_electrons());

  EXPECT_GT(gap_diamond, 1.5);           // insulating
  EXPECT_LT(gap_graphene, gap_diamond);  // semimetallic-ish sampling
}

TEST(Workflow, OrderNMdMatchesExactMdShortRun) {
  // Run the same NVE trajectory with exact diagonalization and with O(N)
  // purification forces; they must agree closely for a gapped system.
  System s1 = structures::diamond(Element::C, 3.567, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s1, 300.0, 7);
  System s2 = s1;

  tb::TightBindingCalculator exact(tb::xwch_carbon());
  CalculatorSpec oopt = CalculatorSpec::order_n(1e-9);
  onx::OrderNCalculator fast(tb::xwch_carbon(), oopt);

  md::MdDriver d1(s1, exact, {1.0});
  md::MdDriver d2(s2, fast, {1.0});
  d1.run(10);
  d2.run(10);

  double worst = 0.0;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    worst = std::max(worst, norm(s1.positions()[i] - s2.positions()[i]));
  }
  EXPECT_LT(worst, 1e-4);  // trajectories track each other
}

TEST(Workflow, TersoffAndTbAgreeOnSiliconEquilibrium) {
  // Independent models must both identify the diamond lattice constant of
  // silicon within a few percent -- a cross-validation of both engines.
  auto minimum_of = [](Calculator& calc) {
    double best_a = 0.0, best_e = 1e300;
    for (double a = 5.2; a <= 5.7; a += 0.05) {
      System s = structures::diamond(Element::Si, a, 2, 2, 2);
      const double e = calc.compute(s).energy;
      if (e < best_e) {
        best_e = e;
        best_a = a;
      }
    }
    return best_a;
  };
  potentials::TersoffCalculator tersoff(potentials::tersoff_silicon());
  tb::TightBindingCalculator tbc(tb::gsp_silicon());
  EXPECT_NEAR(minimum_of(tersoff), minimum_of(tbc), 0.15);
}

TEST(Workflow, PartialSpectrumReproducesFullSolverEnergiesAndForces) {
  // The occupied-states-only diagonalization path must be physically
  // indistinguishable from the full solver: same energies, forces, Fermi
  // level -- at zero and at finite electronic temperature.
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.03, 12);

  for (const double etemp : {0.0, 1000.0}) {
    CalculatorSpec full_opt;
    full_opt.electronic_temperature = etemp;
    full_opt.spectrum = SpectrumPolicy::kFull;
    tb::TightBindingCalculator full(tb::xwch_carbon(), full_opt);

    CalculatorSpec part_opt;
    part_opt.electronic_temperature = etemp;
    part_opt.report_eigenvalues = false;
    part_opt.spectrum = SpectrumPolicy::kPartial;
    tb::TightBindingCalculator part(tb::xwch_carbon(), part_opt);

    const auto rf = full.compute(s);
    const auto rp = part.compute(s);

    EXPECT_NEAR(rp.energy, rf.energy, 1e-8) << "etemp = " << etemp;
    EXPECT_NEAR(rp.band_energy, rf.band_energy, 1e-8) << "etemp = " << etemp;
    EXPECT_NEAR(rp.fermi_level, rf.fermi_level, 1e-8) << "etemp = " << etemp;
    ASSERT_EQ(rp.forces.size(), rf.forces.size());
    for (std::size_t i = 0; i < rf.forces.size(); ++i) {
      EXPECT_LT(norm(rp.forces[i] - rf.forces[i]), 1e-8)
          << "atom " << i << ", etemp = " << etemp;
    }
  }

  // kAuto with report_eigenvalues = false engages the partial path too and
  // must agree with the default full-spectrum configuration.
  CalculatorSpec auto_opt;
  auto_opt.report_eigenvalues = false;
  tb::TightBindingCalculator autoc(tb::xwch_carbon(), auto_opt);
  tb::TightBindingCalculator deflt(tb::xwch_carbon());
  const auto ra = autoc.compute(s);
  const auto rd = deflt.compute(s);
  EXPECT_NEAR(ra.energy, rd.energy, 1e-8);
  EXPECT_TRUE(ra.eigenvalues.empty());
  EXPECT_EQ(rd.eigenvalues.size(), static_cast<std::size_t>(4 * s.size()));
}

TEST(Workflow, HeatingRampRaisesTemperature) {
  // The paper's 0.5 K/fs thermostat ramp protocol, at miniature scale.
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s, 300.0, 8);
  tb::TightBindingCalculator calc(tb::gsp_silicon());
  md::MdOptions opt;
  opt.dt = 1.0;
  opt.thermostat = md::ThermostatSpec::nose_hoover(300.0, 30.0, 2);
  md::MdDriver driver(s, calc, std::move(opt));

  // Ramp 300 K -> 400 K over 200 fs (0.5 K/fs).
  driver.ramp_temperature(400.0, 200);
  EXPECT_NEAR(driver.thermostat()->target(), 400.0, 1e-9);
  // Let the lagging system settle at the new target, then average:
  // instantaneous T fluctuates by ~T*sqrt(2/3N) ~ 40 K here.
  driver.run(100);
  double t_acc = 0.0;
  driver.run(120, [&](const md::MdDriver& d, long) {
    t_acc += d.system().temperature();
  });
  EXPECT_GT(t_acc / 120.0, 315.0);
}

}  // namespace
}  // namespace tbmd
