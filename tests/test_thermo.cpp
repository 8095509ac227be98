// Tests for the virial tensor and the pressure estimator, validated
// against finite-difference volume derivatives of the total energy.

#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/thermo.hpp"
#include "src/potentials/lennard_jones.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"

namespace tbmd::analysis {
namespace {

/// -dE/dV by central differences: scale the cell and all coordinates
/// isotropically by (1 +- eps) and re-evaluate the energy.
double fd_pressure(Calculator& calc, const System& base, double eps = 2e-4) {
  auto scaled = [&](double factor) {
    System s = base;
    const Mat3& h = base.cell().h();
    s.set_cell(Cell(h.row(0) * factor, h.row(1) * factor, h.row(2) * factor,
                    base.cell().periodic(0), base.cell().periodic(1),
                    base.cell().periodic(2)));
    for (Vec3& r : s.positions()) r *= factor;
    return s;
  };
  System plus = scaled(1.0 + eps);
  System minus = scaled(1.0 - eps);
  const double ep = calc.compute(plus).energy;
  const double em = calc.compute(minus).energy;
  const double v0 = base.cell().volume();
  const double vp = v0 * std::pow(1.0 + eps, 3);
  const double vm = v0 * std::pow(1.0 - eps, 3);
  return -(ep - em) / (vp - vm);
}

TEST(Virial, LennardJonesPressureMatchesVolumeDerivative) {
  System s = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
  potentials::LennardJonesParams p;
  p.cutoff = 4.8;
  p.skin = 0.0;  // exact cutoff so E(V) is smooth across the FD stencil
  potentials::LennardJonesCalculator calc(p);
  const ForceResult r = calc.compute(s);
  const double p_virial = instantaneous_pressure(s, r);  // KE = 0
  const double p_fd = fd_pressure(calc, s);
  EXPECT_NEAR(p_virial, p_fd, 1e-6);
}

TEST(Virial, LennardJonesSignsFollowCompression) {
  potentials::LennardJonesParams p;
  p.cutoff = 4.5;  // the compressed 9.8 A cell admits a 4.9 A list radius
  p.skin = 0.3;
  potentials::LennardJonesCalculator calc(p);
  // Compressed lattice pushes out (P > 0), stretched pulls in (P < 0).
  System tight = structures::fcc(Element::Ar, 4.9, 2, 2, 2);
  System loose = structures::fcc(Element::Ar, 5.8, 2, 2, 2);
  EXPECT_GT(instantaneous_pressure(tight, calc.compute(tight)), 0.0);
  EXPECT_LT(instantaneous_pressure(loose, calc.compute(loose)), 0.0);
}

TEST(Virial, TightBindingPressureMatchesVolumeDerivative) {
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(s, 0.02, 7);
  CalculatorSpec opt;
  opt.skin = 0.0;
  tb::TightBindingCalculator calc(tb::gsp_silicon(), opt);
  const ForceResult r = calc.compute(s);
  const double p_virial = instantaneous_pressure(s, r);
  const double p_fd = fd_pressure(calc, s);
  EXPECT_NEAR(p_virial, p_fd, 5e-5);
}

TEST(Virial, TightBindingNearZeroAtEquilibrium) {
  // At the model's equilibrium lattice constant the static pressure ~ 0.
  tb::TightBindingCalculator calc(tb::gsp_silicon());
  System s = structures::diamond(Element::Si, 5.42, 2, 2, 2);
  const double p_gpa = kEvPerA3ToGPa *
                       instantaneous_pressure(s, calc.compute(s));
  EXPECT_LT(std::fabs(p_gpa), 3.0);  // within a few GPa of zero
}

TEST(Virial, TersoffPressureMatchesVolumeDerivative) {
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(s, 0.03, 9);
  potentials::TersoffParams p = potentials::tersoff_silicon();
  p.skin = 0.0;
  potentials::TersoffCalculator calc(p);
  const ForceResult r = calc.compute(s);
  const double p_virial = instantaneous_pressure(s, r);
  const double p_fd = fd_pressure(calc, s);
  EXPECT_NEAR(p_virial, p_fd, 5e-6);
}

TEST(Virial, CompressionRaisesTbPressureMonotonically) {
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  double prev = -1e300;
  for (const double a : {3.75, 3.65, 3.55, 3.45}) {
    System s = structures::diamond(Element::C, a, 2, 2, 2);
    const double p = instantaneous_pressure(s, calc.compute(s));
    EXPECT_GT(p, prev) << "a = " << a;
    prev = p;
  }
}

TEST(Virial, VirialTensorIsSymmetricForCentralPotentials) {
  potentials::LennardJonesParams p;
  p.cutoff = 4.8;
  p.skin = 0.2;  // keep cutoff+skin inside half the 10.2 A cell
  potentials::LennardJonesCalculator calc(p);
  System s = structures::fcc(Element::Ar, 5.1, 2, 2, 2);
  structures::perturb(s, 0.1, 11);
  const ForceResult r = calc.compute(s);
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      EXPECT_NEAR(r.virial(i, j), r.virial(j, i), 1e-9);
    }
  }
}

TEST(Virial, PressureRequiresPeriodicCell) {
  System cluster = structures::dimer(Element::Ar, 3.8);
  potentials::LennardJonesCalculator calc;
  const ForceResult r = calc.compute(cluster);
  EXPECT_THROW((void)instantaneous_pressure(cluster, r), Error);
}

}  // namespace
}  // namespace tbmd::analysis
