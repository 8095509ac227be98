// Tests for the classical baselines: Lennard-Jones and Tersoff.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/potentials/lennard_jones.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/fullerene.hpp"
#include "src/util/parallel.hpp"
#include "src/util/random.hpp"

namespace tbmd::potentials {
namespace {

double fd_force(Calculator& calc, System& s, std::size_t atom, int axis,
                double h = 1e-6) {
  Vec3 dr{axis == 0 ? h : 0.0, axis == 1 ? h : 0.0, axis == 2 ? h : 0.0};
  s.positions()[atom] += dr;
  const double ep = calc.compute(s).energy;
  s.positions()[atom] -= 2.0 * dr;
  const double em = calc.compute(s).energy;
  s.positions()[atom] += dr;
  return -(ep - em) / (2.0 * h);
}

// --- Lennard-Jones -------------------------------------------------------

TEST(LennardJones, DimerMinimumAtTwoSixthSigma) {
  LennardJonesParams p;
  p.shift_energy = false;
  LennardJonesCalculator calc(p);
  const double rmin = std::pow(2.0, 1.0 / 6.0) * p.sigma;

  System at_min = structures::dimer(Element::Ar, rmin);
  const ForceResult r = calc.compute(at_min);
  EXPECT_NEAR(r.energy, -p.epsilon, 1e-9);
  EXPECT_NEAR(norm(r.forces[0]), 0.0, 1e-9);

  // Energy rises on either side.
  System closer = structures::dimer(Element::Ar, rmin - 0.1);
  System farther = structures::dimer(Element::Ar, rmin + 0.1);
  EXPECT_GT(calc.compute(closer).energy, r.energy);
  EXPECT_GT(calc.compute(farther).energy, r.energy);
}

TEST(LennardJones, ShiftRemovesCutoffStep) {
  LennardJonesParams p;
  p.cutoff = 6.0;
  p.shift_energy = true;
  LennardJonesCalculator calc(p);
  System just_inside = structures::dimer(Element::Ar, 5.999);
  EXPECT_NEAR(calc.compute(just_inside).energy, 0.0, 1e-5);
  System outside = structures::dimer(Element::Ar, 6.001);
  EXPECT_DOUBLE_EQ(calc.compute(outside).energy, 0.0);
}

TEST(LennardJones, ForcesMatchFiniteDifference) {
  System s = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
  structures::perturb(s, 0.15, 3);
  LennardJonesParams p;
  p.cutoff = 4.8;   // the 10.5 A cell only admits a 5.2 A list radius
  p.skin = 0.4;
  LennardJonesCalculator calc(p);
  const ForceResult r0 = calc.compute(s);
  for (const std::size_t atom : {std::size_t{0}, std::size_t{13}}) {
    for (int axis = 0; axis < 3; ++axis) {
      const double fd = fd_force(calc, s, atom, axis);
      const double an = axis == 0   ? r0.forces[atom].x
                        : axis == 1 ? r0.forces[atom].y
                                    : r0.forces[atom].z;
      EXPECT_NEAR(an, fd, 1e-6);
    }
  }
}

TEST(LennardJones, FccArgonCohesionIsReasonable) {
  // LJ fcc at a = 5.26: cohesive energy ~ 0.08 eV/atom (8.6 eps per atom
  // with full lattice sums; cutoff trims it a bit).
  System s = structures::fcc(Element::Ar, 5.26, 3, 3, 3);
  LennardJonesParams p;
  p.cutoff = 6.5;   // fits the 15.8 A cell
  p.skin = 0.5;
  LennardJonesCalculator calc(p);
  const double e = calc.compute(s).energy / s.size();
  EXPECT_LT(e, -0.05);
  EXPECT_GT(e, -0.12);
}

TEST(LennardJones, NewtonsThirdLaw) {
  System s = structures::random_gas(Element::Ar, 32, 0.012, 2.8, 21);
  LennardJonesParams p;
  p.cutoff = 6.0;   // fits the ~13.9 A gas box
  p.skin = 0.5;
  LennardJonesCalculator calc(p);
  const ForceResult r = calc.compute(s);
  Vec3 total{};
  for (const Vec3& f : r.forces) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-10);
}

// --- Tersoff -------------------------------------------------------------

TEST(Tersoff, SiliconDimerIsBound) {
  TersoffCalculator calc(tersoff_silicon());
  System s = structures::dimer(Element::Si, 2.35);
  const double e = calc.compute(s).energy;
  EXPECT_LT(e, -1.0);  // bound by a few eV
  EXPECT_GT(e, -8.0);
}

TEST(Tersoff, SiliconDiamondNearEquilibriumAtPublishedLattice) {
  // E(a) minimum close to a = 5.43 and cohesive energy ~ -4.63 eV/atom.
  TersoffCalculator calc(tersoff_silicon());
  double best_a = 0.0, best_e = 1e300;
  for (double a = 5.1; a <= 5.8; a += 0.05) {
    System s = structures::diamond(Element::Si, a, 2, 2, 2);
    const double e = calc.compute(s).energy / s.size();
    if (e < best_e) {
      best_e = e;
      best_a = a;
    }
  }
  EXPECT_NEAR(best_a, 5.43, 0.12);
  EXPECT_NEAR(best_e, -4.63, 0.25);
}

TEST(Tersoff, CarbonDiamondCohesion) {
  TersoffCalculator calc(tersoff_carbon());
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  const double e = calc.compute(s).energy / s.size();
  // Tersoff carbon: ~ -7.4 eV/atom at the diamond lattice constant.
  EXPECT_NEAR(e, -7.4, 0.5);
}

TEST(Tersoff, BondOrderWeakensWithCoordination) {
  // The energy per bond must be weaker in diamond (4 neighbors) than in the
  // dimer (1 neighbor) -- the defining bond-order property.
  TersoffCalculator calc(tersoff_silicon());
  System dim = structures::dimer(Element::Si, 2.35);
  const double e_dimer_per_bond = calc.compute(dim).energy;  // one bond

  System dia = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  const double e_bulk_per_bond =
      calc.compute(dia).energy / (2.0 * dia.size());  // 2 bonds/atom
  EXPECT_LT(e_dimer_per_bond, e_bulk_per_bond);
}

class TersoffForces : public ::testing::TestWithParam<int> {};

TEST_P(TersoffForces, MatchFiniteDifference) {
  const int seed = GetParam();
  const bool carbon = (seed % 2 == 0);
  TersoffCalculator calc(carbon ? tersoff_carbon() : tersoff_silicon());
  System s = carbon ? structures::diamond(Element::C, 3.567, 2, 2, 2)
                    : structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(s, 0.12, seed);
  const ForceResult r0 = calc.compute(s);
  Rng rng(seed * 7 + 1);
  for (int probe = 0; probe < 4; ++probe) {
    const std::size_t atom = rng.below(s.size());
    const int axis = static_cast<int>(rng.below(3));
    const double fd = fd_force(calc, s, atom, axis);
    const double an = axis == 0   ? r0.forces[atom].x
                      : axis == 1 ? r0.forces[atom].y
                                  : r0.forces[atom].z;
    EXPECT_NEAR(an, fd, 2e-4) << "atom " << atom << " axis " << axis;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TersoffForces, ::testing::Range(30, 38));

TEST(Tersoff, NewtonsThirdLawOnCluster) {
  TersoffCalculator calc(tersoff_carbon());
  System s = structures::c60();
  structures::perturb(s, 0.05, 41);
  const ForceResult r = calc.compute(s);
  Vec3 total{};
  for (const Vec3& f : r.forces) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-9);
}

TEST(Tersoff, EquilibriumLatticeHasZeroForces) {
  TersoffCalculator calc(tersoff_silicon());
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  const ForceResult r = calc.compute(s);
  for (const Vec3& f : r.forces) EXPECT_NEAR(norm(f), 0.0, 1e-9);
}

TEST(Tersoff, EnergyIsExtensive) {
  TersoffCalculator calc(tersoff_silicon());
  System small = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  System large = structures::diamond(Element::Si, 5.431, 2, 2, 4);
  const double e_small = calc.compute(small).energy / small.size();
  const double e_large = calc.compute(large).energy / large.size();
  EXPECT_NEAR(e_small, e_large, 1e-9);
}

// --- step report -------------------------------------------------------

/// A classical potential runs only the neighbors and forces phases and
/// fills no TB counter.
void expect_classical_report(const StepReport& r, bool rebuilt) {
  EXPECT_EQ(r.neighbor_rebuilt, rebuilt);
  EXPECT_GT(r.phase_seconds(Phase::kForces), 0.0);
  EXPECT_DOUBLE_EQ(r.total_seconds(), r.phase_seconds(Phase::kNeighbors) +
                                          r.phase_seconds(Phase::kForces));
  EXPECT_EQ(r.eigenpairs, 0u);
  EXPECT_EQ(r.symbolic_builds, 0u);
  EXPECT_EQ(r.numeric_reuses, 0u);
  EXPECT_EQ(r.topology, 0u);
  EXPECT_EQ(r.domains, 0u);
  EXPECT_EQ(r.bounds_refreshed, 0u);
  EXPECT_EQ(r.workspace_bytes, 0u);
}

TEST(ClassicalStepReport, TimesNeighborsAndForcesOnly) {
  System si = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  TersoffCalculator tersoff(tersoff_silicon());
  (void)tersoff.compute(si);
  expect_classical_report(tersoff.step_report(), true);
  (void)tersoff.compute(si);
  expect_classical_report(tersoff.step_report(), false);

  System ar = structures::fcc(Element::Ar, 5.26, 3, 3, 3);
  LennardJonesParams p;
  p.cutoff = 6.5;
  p.skin = 0.5;
  LennardJonesCalculator lj(p);
  (void)lj.compute(ar);
  expect_classical_report(lj.step_report(), true);
  (void)lj.compute(ar);
  expect_classical_report(lj.step_report(), false);
}

// --- thread-count invariance ---------------------------------------------

TEST(ClassicalThreadCount, BitIdenticalAtAnyTeamSize) {
  // Each force, energy and virial slot has one writer and a fixed
  // summation order, so the team size must not change a single bit.
  struct RestoreThreads {
    int saved = par::max_threads();
    ~RestoreThreads() { par::set_num_threads(saved); }
  } restore;

  System argon = structures::fcc(Element::Ar, 5.26, 4, 4, 4);
  structures::perturb(argon, 0.15, 5);
  System silicon = structures::diamond(Element::Si, 5.431, 3, 3, 3);
  structures::perturb(silicon, 0.1, 6);  // binned neighbor build
  System c60 = structures::c60();
  structures::perturb(c60, 0.05, 7);  // brute-force neighbor build

  struct Case {
    const char* name;
    const System& system;
    std::function<std::unique_ptr<Calculator>()> make;
  };
  const std::vector<Case> cases = {
      {"lj-ar256", argon,
       [] { return std::make_unique<LennardJonesCalculator>(); }},
      {"tersoff-si216", silicon,
       [] { return std::make_unique<TersoffCalculator>(tersoff_silicon()); }},
      {"tersoff-c60", c60,
       [] { return std::make_unique<TersoffCalculator>(tersoff_carbon()); }},
  };
  for (const Case& c : cases) {
    par::set_num_threads(1);
    const ForceResult ref = c.make()->compute(c.system);
    for (const int threads : {2, 3, 4}) {
      par::set_num_threads(threads);
      const ForceResult got = c.make()->compute(c.system);
      SCOPED_TRACE(std::string(c.name) + " at " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(got.energy, ref.energy);
      ASSERT_EQ(got.forces.size(), ref.forces.size());
      for (std::size_t i = 0; i < ref.forces.size(); ++i) {
        EXPECT_EQ(got.forces[i].x, ref.forces[i].x) << "atom " << i;
        EXPECT_EQ(got.forces[i].y, ref.forces[i].y) << "atom " << i;
        EXPECT_EQ(got.forces[i].z, ref.forces[i].z) << "atom " << i;
      }
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          EXPECT_EQ(got.virial(a, b), ref.virial(a, b));
        }
      }
    }
  }
}

}  // namespace
}  // namespace tbmd::potentials
