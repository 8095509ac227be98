// Cross-module property tests: physical invariances that must hold for
// any correct implementation, independent of parameter values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/potentials/lennard_jones.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/fullerene.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/util/random.hpp"

namespace tbmd {
namespace {

Vec3 rotate(const Vec3& v, const Vec3& axis, double angle) {
  return v * std::cos(angle) + cross(axis, v) * std::sin(angle) +
         axis * dot(axis, v) * (1.0 - std::cos(angle));
}

TEST(Invariance, TbEnergyIsNearlyExtensive) {
  // Gamma-point sampling makes the band energy per atom depend weakly on
  // the supercell shape (different folded k-sets); doubling the cell may
  // shift it by a few meV/atom, converging to zero as cells grow.  The
  // repulsive term is strictly local, so the residual must be small.
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  System small = structures::diamond(Element::C, 3.567, 2, 2, 2);
  System large = structures::diamond(Element::C, 3.567, 2, 2, 4);
  const ForceResult rs = calc.compute(small);
  const ForceResult rl = calc.compute(large);
  EXPECT_NEAR(rs.energy / small.size(), rl.energy / large.size(), 0.02);
  // The classical repulsion is exactly extensive.
  EXPECT_NEAR(rs.repulsive_energy / small.size(),
              rl.repulsive_energy / large.size(), 1e-9);
}

TEST(Invariance, TbEnergyIndependentOfVerletSkin) {
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(s, 0.05, 3);
  double reference = 0.0;
  for (const double skin : {0.0, 0.3, 0.8}) {
    CalculatorSpec opt;
    opt.skin = skin;
    tb::TightBindingCalculator calc(tb::gsp_silicon(), opt);
    const double e = calc.compute(s).energy;
    if (skin == 0.0) {
      reference = e;
    } else {
      EXPECT_NEAR(e, reference, 1e-9) << "skin " << skin;
    }
  }
}

TEST(Invariance, TbEnergyUnchangedByPositionWrapping) {
  // Moving atoms by lattice vectors must not change anything.
  System a = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(a, 0.04, 5);
  System b = a;
  Rng rng(7);
  for (std::size_t i = 0; i < b.size(); ++i) {
    const int n1 = static_cast<int>(rng.below(3)) - 1;
    const int n2 = static_cast<int>(rng.below(3)) - 1;
    const int n3 = static_cast<int>(rng.below(3)) - 1;
    b.positions()[i] += b.cell().shift_vector(n1, n2, n3);
  }
  tb::TightBindingCalculator ca(tb::xwch_carbon());
  tb::TightBindingCalculator cb(tb::xwch_carbon());
  const ForceResult ra = ca.compute(a);
  const ForceResult rb = cb.compute(b);
  EXPECT_NEAR(ra.energy, rb.energy, 1e-8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(norm(ra.forces[i] - rb.forces[i]), 0.0, 1e-8);
  }
}

TEST(Invariance, TbForcesRotateWithTheCluster) {
  System a = structures::c60();
  structures::perturb(a, 0.05, 9);
  const Vec3 axis = normalized(Vec3{1.0, -2.0, 0.5});
  const double angle = 0.83;

  System b = a;
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.positions()[i] = rotate(a.positions()[i], axis, angle);
  }
  tb::TightBindingCalculator ca(tb::xwch_carbon());
  tb::TightBindingCalculator cb(tb::xwch_carbon());
  const ForceResult ra = ca.compute(a);
  const ForceResult rb = cb.compute(b);
  EXPECT_NEAR(ra.energy, rb.energy, 1e-8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Vec3 expected = rotate(ra.forces[i], axis, angle);
    EXPECT_NEAR(norm(expected - rb.forces[i]), 0.0, 2e-7) << "atom " << i;
  }
}

TEST(Invariance, TbEnergyInvariantUnderAtomPermutation) {
  System a = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(a, 0.06, 11);

  // Reversed atom order.
  System b(a.cell());
  for (std::size_t i = a.size(); i-- > 0;) {
    b.add_atom(a.species()[i], a.positions()[i]);
  }
  tb::TightBindingCalculator ca(tb::gsp_silicon());
  tb::TightBindingCalculator cb(tb::gsp_silicon());
  const ForceResult ra = ca.compute(a);
  const ForceResult rb = cb.compute(b);
  EXPECT_NEAR(ra.energy, rb.energy, 1e-8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(norm(ra.forces[i] - rb.forces[a.size() - 1 - i]), 0.0, 1e-8);
  }
}

TEST(Invariance, TersoffForcesRotateWithTheCluster) {
  System a = structures::c60();
  structures::perturb(a, 0.04, 13);
  const Vec3 axis = normalized(Vec3{0.3, 0.4, -1.0});
  const double angle = 1.27;
  System b = a;
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.positions()[i] = rotate(a.positions()[i], axis, angle);
  }
  potentials::TersoffCalculator ca(potentials::tersoff_carbon());
  potentials::TersoffCalculator cb(potentials::tersoff_carbon());
  const ForceResult ra = ca.compute(a);
  const ForceResult rb = cb.compute(b);
  EXPECT_NEAR(ra.energy, rb.energy, 1e-9);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Vec3 expected = rotate(ra.forces[i], axis, angle);
    EXPECT_NEAR(norm(expected - rb.forces[i]), 0.0, 1e-8);
  }
}

TEST(Dynamics, VelocityVerletIsTimeReversible) {
  // Integrate forward, flip velocities, integrate the same number of
  // steps: the system must retrace its path to the starting point.
  System s = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s, 60.0, 17);
  const std::vector<Vec3> start = s.positions();

  potentials::LennardJonesParams p;
  p.cutoff = 4.8;
  p.skin = 0.0;  // keep the force field exactly deterministic in r
  potentials::LennardJonesCalculator calc(p);
  md::MdDriver driver(s, calc, {2.0});
  driver.run(50);
  for (Vec3& v : s.velocities()) v = -v;
  driver.run(50);

  double worst = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    worst = std::max(worst, norm(s.positions()[i] - start[i]));
  }
  EXPECT_LT(worst, 1e-8);
}

TEST(Dynamics, NveConservesLinearMomentum) {
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  md::maxwell_boltzmann_velocities(s, 400.0, 19);
  tb::TightBindingCalculator calc(tb::gsp_silicon());
  md::MdDriver driver(s, calc, {1.0});
  driver.run(25);
  Vec3 total{};
  for (std::size_t i = 0; i < s.size(); ++i) {
    total += s.mass(i) * s.velocities()[i];
  }
  EXPECT_NEAR(norm(total), 0.0, 1e-8);
}

TEST(Dynamics, DeterministicGivenSeed) {
  auto run_once = [] {
    System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
    md::maxwell_boltzmann_velocities(s, 500.0, 23);
    tb::TightBindingCalculator calc(tb::xwch_carbon());
    md::MdDriver driver(s, calc, {1.0});
    driver.run(10);
    return s.positions();
  };
  const auto a = run_once();
  const auto b = run_once();
  // Threaded force reductions accumulate in thread-arrival order, so
  // bitwise identity is not guaranteed; trajectories must still agree to
  // floating-point noise over this short horizon.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(norm(a[i] - b[i]), 0.0, 1e-9);
  }
}

TEST(Invariance, VirialTraceMatchesIsotropicScalingForce) {
  // tr W = -3V dE/dV; consistency between the virial accumulation and a
  // direct isotropic strain derivative for the Tersoff potential.
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  potentials::TersoffParams p = potentials::tersoff_silicon();
  p.skin = 0.0;
  potentials::TersoffCalculator calc(p);
  const ForceResult r = calc.compute(s);

  const double eps = 1e-4;
  auto energy_scaled = [&](double f) {
    System c = s;
    const Mat3& h = s.cell().h();
    c.set_cell(Cell(h.row(0) * f, h.row(1) * f, h.row(2) * f));
    for (Vec3& q : c.positions()) q *= f;
    potentials::TersoffCalculator cc(p);
    return cc.compute(c).energy;
  };
  const double dE_dlnf =
      (energy_scaled(1.0 + eps) - energy_scaled(1.0 - eps)) / (2.0 * eps);
  EXPECT_NEAR(trace(r.virial), -dE_dlnf, 1e-4 * std::max(1.0, std::fabs(dE_dlnf)));
}

}  // namespace
}  // namespace tbmd
