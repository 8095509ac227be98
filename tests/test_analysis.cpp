// Tests for the analysis toolkit: RDF, MSD, VACF/VDOS, electronic DOS,
// coordination statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/analysis/bonds.hpp"
#include "src/analysis/edos.hpp"
#include "src/analysis/msd.hpp"
#include "src/analysis/rdf.hpp"
#include "src/analysis/vacf.hpp"
#include "src/structures/builders.hpp"
#include "src/util/error.hpp"

namespace tbmd::analysis {
namespace {

TEST(Rdf, PerfectCrystalPeaksAtShells) {
  const double a = 5.431;
  const System s = structures::diamond(Element::Si, a, 3, 3, 3);
  RdfAccumulator acc(6.0, 300);
  acc.add_frame(s);
  const std::vector<double> r = acc.r_values();
  const std::vector<double> g = acc.g_of_r();

  const double shell1 = std::sqrt(3.0) / 4.0 * a;  // 2.3517
  const double shell2 = a / std::sqrt(2.0);        // 3.8403

  auto g_at = [&](double at) {
    std::size_t best = 0;
    for (std::size_t b = 0; b < r.size(); ++b) {
      if (std::fabs(r[b] - at) < std::fabs(r[best] - at)) best = b;
    }
    return g[best];
  };
  EXPECT_GT(g_at(shell1), 10.0);          // delta-like first shell
  EXPECT_GT(g_at(shell2), 5.0);           // second shell
  EXPECT_NEAR(g_at(0.5 * shell1), 0.0, 1e-12);  // nothing below
  EXPECT_NEAR(g_at(3.0), 0.0, 1e-12);     // gap between shells
}

TEST(Rdf, IdealGasIsFlatAroundUnity) {
  const System s = structures::random_gas(Element::Ar, 600, 0.01, 0.8, 3);
  RdfAccumulator acc(6.0, 30);
  acc.add_frame(s);
  const auto g = acc.g_of_r();
  // Beyond the (small) exclusion distance the gas is uncorrelated: g ~ 1.
  double mean = 0.0;
  int count = 0;
  for (std::size_t b = 10; b < 30; ++b) {
    mean += g[b];
    ++count;
  }
  mean /= count;
  EXPECT_NEAR(mean, 1.0, 0.25);
}

TEST(Rdf, MultipleFramesAverage) {
  RdfAccumulator acc(5.0, 50);
  const System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  acc.add_frame(s);
  acc.add_frame(s);
  EXPECT_EQ(acc.frames(), 2u);
  // Averaging identical frames must equal the single-frame result.
  RdfAccumulator one(5.0, 50);
  one.add_frame(s);
  const auto g2 = acc.g_of_r();
  const auto g1 = one.g_of_r();
  for (std::size_t b = 0; b < g1.size(); ++b) {
    EXPECT_NEAR(g1[b], g2[b], 1e-12);
  }
}

TEST(Rdf, RejectsBadArguments) {
  EXPECT_THROW(RdfAccumulator(0.0, 10), Error);
  EXPECT_THROW(RdfAccumulator(5.0, 0), Error);
}

TEST(Msd, BallisticMotionIsQuadraticInTime) {
  System s;
  s.add_atom(Element::Ar, {0, 0, 0}, {0.1, 0, 0});
  s.add_atom(Element::Ar, {5, 0, 0}, {0, 0.2, 0});
  MsdTracker tracker(s);
  // Advance positions manually by v * t with t = 10 fs.
  s.positions()[0] += Vec3{1.0, 0, 0};
  s.positions()[1] += Vec3{0, 2.0, 0};
  EXPECT_NEAR(tracker.msd(s), (1.0 + 4.0) / 2.0, 1e-12);
  tracker.rebase(s);
  EXPECT_NEAR(tracker.msd(s), 0.0, 1e-15);
}

TEST(Msd, ExcludesFrozenAtoms) {
  System s;
  s.add_atom(Element::Ar, {0, 0, 0});
  s.add_atom(Element::Ar, {5, 0, 0});
  s.set_frozen(1, true);
  MsdTracker tracker(s);
  s.positions()[0] += Vec3{2.0, 0, 0};
  s.positions()[1] += Vec3{9.0, 0, 0};  // frozen atom moved externally
  EXPECT_NEAR(tracker.msd(s), 4.0, 1e-12);
}

TEST(Vacf, PureCosineVelocityGivesSpectralPeakAtItsFrequency) {
  // Synthetic trajectory: v(t) = cos(2 pi f0 t) x-hat with f0 = 0.05 /fs.
  const double f0 = 0.05;
  const double dt = 1.0;
  System s;
  s.add_atom(Element::C, {0, 0, 0});
  VacfAccumulator acc(dt);
  for (int step = 0; step < 400; ++step) {
    const double t = step * dt;
    s.velocities()[0] = {std::cos(2.0 * std::numbers::pi * f0 * t), 0, 0};
    acc.add_frame(s);
  }
  const auto c = acc.correlation(200);
  EXPECT_NEAR(c[0], 1.0, 1e-12);  // normalized

  std::vector<double> freqs;
  for (int q = 1; q <= 100; ++q) freqs.push_back(0.001 * q);
  const auto spec = acc.spectrum(freqs, 200);
  const std::size_t peak =
      std::max_element(spec.begin(), spec.end()) - spec.begin();
  EXPECT_NEAR(freqs[peak], f0, 0.003);
}

TEST(Vacf, RequiresAtLeastTwoFrames) {
  VacfAccumulator acc(1.0);
  System s;
  s.add_atom(Element::C, {0, 0, 0});
  acc.add_frame(s);
  EXPECT_THROW((void)acc.correlation(10), Error);
}

TEST(Edos, GaussianBroadeningIntegratesToStateCount) {
  const std::vector<double> eps{-2.0, -1.0, 0.0, 1.0};
  const ElectronicDos dos = electronic_dos(eps, 0.1, 2000);
  // Trapezoid integral of the DOS = 2 * (number of states)  (spin factor).
  double integral = 0.0;
  for (std::size_t q = 1; q < dos.energies.size(); ++q) {
    integral += 0.5 * (dos.dos[q] + dos.dos[q - 1]) *
                (dos.energies[q] - dos.energies[q - 1]);
  }
  EXPECT_NEAR(integral, 8.0, 0.05);
}

TEST(Edos, PeaksAtEigenvalues) {
  const std::vector<double> eps{-1.0, 1.0};
  const ElectronicDos dos = electronic_dos(eps, 0.05, 1000);
  const std::size_t imax =
      std::max_element(dos.dos.begin(), dos.dos.end()) - dos.dos.begin();
  const double epeak = dos.energies[imax];
  EXPECT_TRUE(std::fabs(epeak + 1.0) < 0.05 || std::fabs(epeak - 1.0) < 0.05);
}

TEST(Edos, HomoLumoGap) {
  const std::vector<double> eps{-2.0, -1.0, 1.5, 3.0};
  EXPECT_DOUBLE_EQ(homo_lumo_gap(eps, 4), 2.5);   // HOMO=-1, LUMO=1.5
  EXPECT_DOUBLE_EQ(homo_lumo_gap(eps, 2), 1.0);   // HOMO=-2, LUMO=-1
  EXPECT_DOUBLE_EQ(homo_lumo_gap(eps, 8), 0.0);   // full
  EXPECT_DOUBLE_EQ(homo_lumo_gap(eps, 3), 2.5);   // odd counts round up
  EXPECT_DOUBLE_EQ(homo_lumo_gap(eps, 0), 0.0);
}

TEST(Edos, RejectsBadArguments) {
  EXPECT_THROW((void)electronic_dos({}, 0.1, 100), Error);
  EXPECT_THROW((void)electronic_dos({1.0}, 0.0, 100), Error);
}

TEST(Bonds, DiamondCoordinationHistogram) {
  const System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  const auto hist = coordination_histogram(s, 1.7);
  EXPECT_EQ(hist[4], s.size());
  for (std::size_t c = 0; c < hist.size(); ++c) {
    if (c != 4) {
      EXPECT_EQ(hist[c], 0u) << "coordination " << c;
    }
  }
}

TEST(Bonds, CountsAndMeanLength) {
  const System s = structures::graphene(Element::C, 1.42, 2, 2);
  // 3 bonds per atom, each shared: 3N/2.
  EXPECT_EQ(bond_count(s, 1.6), s.size() * 3 / 2);
  EXPECT_NEAR(mean_bond_length(s, 1.6), 1.42, 1e-10);
}

TEST(Bonds, IsolatedAtomsHaveNoBonds) {
  const System s = structures::chain(Element::C, 4, 10.0);
  EXPECT_EQ(bond_count(s, 2.0), 0u);
  EXPECT_DOUBLE_EQ(mean_bond_length(s, 2.0), 0.0);
}

}  // namespace
}  // namespace tbmd::analysis
