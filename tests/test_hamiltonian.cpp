// Tests for the dense TB Hamiltonian assembly: analytic dimer spectra,
// symmetry, translation and rotation invariance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/linalg/eigen_sym.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/fullerene.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/radial.hpp"
#include "src/util/error.hpp"
#include "src/util/random.hpp"

namespace tbmd::tb {
namespace {

linalg::Matrix hamiltonian_of(const TbModel& model, const System& s) {
  NeighborList list;
  list.build(s.positions(), s.cell(), {model.cutoff(), 0.3});
  return build_hamiltonian(model, s, list);
}

TEST(Hamiltonian, DimensionsAndOnsite) {
  const TbModel m = xwch_carbon();
  const System s = structures::dimer(Element::C, 1.42);
  const linalg::Matrix h = hamiltonian_of(m, s);
  ASSERT_EQ(h.rows(), 8u);
  EXPECT_DOUBLE_EQ(h(0, 0), m.species[0].e_s);
  EXPECT_DOUBLE_EQ(h(1, 1), m.species[0].e_p);
  EXPECT_DOUBLE_EQ(h(5, 5), m.species[0].e_p);
}

TEST(Hamiltonian, IsSymmetric) {
  const TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.05, 3);
  const linalg::Matrix h = hamiltonian_of(m, s);
  EXPECT_LT(linalg::symmetry_defect(h), 1e-14);
}

TEST(Hamiltonian, DimerPiLevelsAnalytic) {
  // For a dimer along z the px/py manifolds decouple:
  // eigenvalues e_p +- V_ppp * s(r), each doubly degenerate.
  const TbModel m = xwch_carbon();
  const double r = 1.42;
  const System s = structures::dimer(Element::C, r);
  const auto vals = linalg::eigvalsh(hamiltonian_of(m, s));
  const PairParams& pp = m.pair(0, 0);
  const double e_p = m.species[0].e_p;
  const double sc = evaluate_scaling(pp.hopping, r).value;
  const double lo = e_p - std::fabs(pp.integrals.ppp) * sc;
  const double hi = e_p + std::fabs(pp.integrals.ppp) * sc;

  auto count_near = [&](double target) {
    int c = 0;
    for (const double v : vals) c += (std::fabs(v - target) < 1e-9);
    return c;
  };
  EXPECT_EQ(count_near(lo), 2) << "bonding pi pair";
  EXPECT_EQ(count_near(hi), 2) << "antibonding pi pair";
}

TEST(Hamiltonian, DimerSigmaBlockAnalytic) {
  // The sigma manifold (s, pz on both atoms) splits by inversion symmetry
  // into two 2x2 blocks:
  //   gerade:   [e_s + Vss,  sqrt stuff ...] -- verified via characteristic
  // Instead of hand-solving, verify the full spectrum satisfies the secular
  // determinant of the 4x4 sigma block.
  const TbModel m = gsp_silicon();
  const double r = 2.35;
  const System s = structures::dimer(Element::Si, r);
  const auto vals = linalg::eigvalsh(hamiltonian_of(m, s));
  const PairParams& pp = m.pair(0, 0);
  const double e_s = m.species[0].e_s;
  const double e_p = m.species[0].e_p;
  const double sc = evaluate_scaling(pp.hopping, r).value;
  const double vss = pp.integrals.sss * sc;
  const double vsp = pp.integrals.sps * sc;
  const double vpp = pp.integrals.pps * sc;

  // Gerade block: [[e_s + vss, sqrt2? ...]] -- direct 2x2 forms:
  //   |e_s + vss - E, vsp; vsp, e_p - vpp - E| = 0   (one parity)
  //   |e_s - vss - E, vsp; vsp, e_p + vpp - E| = 0   (other parity)
  auto solve22 = [](double a, double b, double c) {
    // eigenvalues of [[a, c], [c, b]]
    const double mean = 0.5 * (a + b);
    const double disc = std::sqrt(0.25 * (a - b) * (a - b) + c * c);
    return std::pair<double, double>{mean - disc, mean + disc};
  };
  const auto [g1, g2] = solve22(e_s + vss, e_p - vpp, vsp);
  const auto [u1, u2] = solve22(e_s - vss, e_p + vpp, vsp);

  const double vppp = pp.integrals.ppp * sc;
  std::vector<double> expected{g1,        g2,        u1,        u2,
                               e_p + vppp, e_p + vppp, e_p - vppp, e_p - vppp};
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(vals.size(), expected.size());
  for (std::size_t k = 0; k < vals.size(); ++k) {
    EXPECT_NEAR(vals[k], expected[k], 1e-9) << "state " << k;
  }
}

TEST(Hamiltonian, TranslationInvariance) {
  const TbModel m = xwch_carbon();
  System a = structures::c60();
  System b = a;
  for (auto& r : b.positions()) r += Vec3{3.0, -1.0, 2.5};
  const auto va = linalg::eigvalsh(hamiltonian_of(m, a));
  const auto vb = linalg::eigvalsh(hamiltonian_of(m, b));
  for (std::size_t k = 0; k < va.size(); ++k) {
    EXPECT_NEAR(va[k], vb[k], 1e-10);
  }
}

TEST(Hamiltonian, RotationInvarianceOfSpectrum) {
  const TbModel m = xwch_carbon();
  System a = structures::dimer(Element::C, 1.35);
  a.add_atom(Element::C, {1.1, 0.9, -0.3});  // break symmetry: triatomic

  // Rotate by a random orthogonal matrix (Rodrigues about a random axis).
  Rng rng(17);
  const Vec3 axis = normalized(Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                                    rng.uniform(-1, 1)});
  const double th = 1.1;
  auto rotate = [&](const Vec3& v) {
    return v * std::cos(th) + cross(axis, v) * std::sin(th) +
           axis * dot(axis, v) * (1.0 - std::cos(th));
  };
  System b = a;
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.positions()[i] = rotate(a.positions()[i]);
  }
  const auto va = linalg::eigvalsh(hamiltonian_of(m, a));
  const auto vb = linalg::eigvalsh(hamiltonian_of(m, b));
  for (std::size_t k = 0; k < va.size(); ++k) {
    EXPECT_NEAR(va[k], vb[k], 1e-9);
  }
}

TEST(Hamiltonian, PeriodicImageCouplingAppears) {
  // Two atoms straddling a periodic boundary must be coupled.
  System s(Cell::orthorhombic(8, 8, 8));
  s.add_atom(Element::C, {0.3, 4, 4});
  s.add_atom(Element::C, {7.0, 4, 4});  // 1.3 A via the image
  const TbModel m = xwch_carbon();
  const linalg::Matrix h = hamiltonian_of(m, s);
  EXPECT_GT(std::fabs(h(0, 4)), 1.0);  // strong ss coupling
}

TEST(Hamiltonian, GrapheneBandEdgesAreBounded) {
  // Sanity on a real lattice: all eigenvalues lie inside the union of
  // Gershgorin discs, and the spectrum is symmetric-ish around the p level
  // by electron-hole structure of the pi network (loose check).
  const TbModel m = xwch_carbon();
  const System s = structures::graphene(Element::C, 1.42, 3, 2);
  const linalg::Matrix h = hamiltonian_of(m, s);
  const auto vals = linalg::eigvalsh(h);
  double radius = 0.0;
  for (std::size_t i = 0; i < h.rows(); ++i) {
    double r = 0.0;
    for (std::size_t j = 0; j < h.cols(); ++j) {
      if (i != j) r += std::fabs(h(i, j));
    }
    radius = std::max(radius, r);
  }
  const SpeciesParams& c = m.species[0];
  EXPECT_GE(vals.front(), -radius + std::min(c.e_s, c.e_p) - 1.0);
  EXPECT_LE(vals.back(), radius + std::max(c.e_s, c.e_p) + 1.0);
}

TEST(Hamiltonian, WrongSpeciesRejected) {
  const TbModel m = xwch_carbon();
  System s = structures::dimer(Element::Si, 2.3);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  EXPECT_THROW((void)build_hamiltonian(m, s, list), Error);
}

TEST(Hamiltonian, IsolatedAtomsGiveOnsiteSpectrum) {
  const TbModel m = xwch_carbon();
  const System s = structures::chain(Element::C, 3, 10.0);  // far apart
  const auto vals = linalg::eigvalsh(hamiltonian_of(m, s));
  int n_s = 0, n_p = 0;
  for (const double v : vals) {
    if (std::fabs(v - m.species[0].e_s) < 1e-10) ++n_s;
    if (std::fabs(v - m.species[0].e_p) < 1e-10) ++n_p;
  }
  EXPECT_EQ(n_s, 3);
  EXPECT_EQ(n_p, 9);
}

}  // namespace
}  // namespace tbmd::tb
