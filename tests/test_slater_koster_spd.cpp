// Tests for the Slater-Koster evaluator on multi-species (variable-block)
// models: textbook spd structure on-axis, Hermiticity across bond
// orderings for mixed 1x4 and 4x9 pairs, and finite-difference derivative
// checks for every pair of orbital counts in {1, 4, 9}.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/tb/radial.hpp"
#include "src/tb/slater_koster.hpp"
#include "src/util/random.hpp"

namespace tbmd::tb {
namespace {

Vec3 random_unit(Rng& rng) {
  Vec3 v;
  do {
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
  } while (norm2_sq(v) < 1e-3);
  return normalized(v);
}

RadialScaling test_scaling() {
  RadialScaling sc;
  sc.r0 = 2.0;
  sc.n = 2.0;
  sc.nc = 6.0;
  sc.rc = 3.0;
  sc.r_taper = 3.2;
  sc.r_cut = 3.6;
  return sc;
}

/// A two-species model: A is s-only, B is sp, C is spd; every integral slot
/// the pair can carry is populated with a distinct value so no symmetry
/// comes for free.
TbModel toy_multi_model() {
  TbModel m;
  m.name = "toy-multi";
  m.repulsion_kind = RepulsionKind::kPairSum;
  SpeciesParams a{Element::H, 1, -3.0, 0.0, 0.0};
  SpeciesParams b{Element::C, 4, -2.5, 3.5, 0.0};
  SpeciesParams c{Element::Au, 9, -4.5, 1.3, -7.5};
  m.set_species({a, b, c});

  PairParams ab;
  ab.integrals.sss = -1.1;
  ab.integrals.sps = 1.6;  // A's s with B's p
  ab.hopping = test_scaling();
  ab.phi0 = 1.0;
  ab.repulsive = test_scaling();
  m.set_pair(0, 1, ab);

  PairParams bc;
  bc.integrals.sss = -0.9;
  bc.integrals.sps = 1.2;
  bc.integrals.pss = -1.4;
  bc.integrals.pps = 2.1;
  bc.integrals.ppp = -0.5;
  bc.integrals.sds = -0.8;
  bc.integrals.pds = -1.0;
  bc.integrals.pdp = 0.4;
  bc.hopping = test_scaling();
  bc.phi0 = 1.0;
  bc.repulsive = test_scaling();
  m.set_pair(1, 2, bc);

  PairParams cc;
  cc.integrals.sss = -0.7;
  cc.integrals.sps = 1.1;
  cc.integrals.pps = 1.9;
  cc.integrals.ppp = -0.3;
  cc.integrals.sds = -0.6;
  cc.integrals.pds = -0.9;
  cc.integrals.pdp = 0.3;
  cc.integrals.dds = -0.55;
  cc.integrals.ddp = 0.35;
  cc.integrals.ddd = -0.08;
  cc.hopping = test_scaling();
  cc.phi0 = 1.0;
  cc.repulsive = test_scaling();
  m.set_pair(2, 2, cc);

  PairParams aa = ab;
  aa.integrals = {};
  aa.integrals.sss = -1.3;
  m.set_pair(0, 0, aa);
  PairParams bb = ab;
  bb.integrals = {};
  bb.integrals.sss = -1.0;
  bb.integrals.sps = 1.5;
  bb.integrals.pps = 2.0;
  bb.integrals.ppp = -0.4;
  m.set_pair(1, 1, bb);
  PairParams ac = ab;
  ac.integrals = {};
  ac.integrals.sss = -0.8;
  ac.integrals.sds = -0.5;
  m.set_pair(0, 2, ac);
  return m;
}

TEST(SkPairBlock, SpdBondAlongZHasTextbookStructure) {
  const TbModel m = toy_multi_model();
  const PairParams& cc = m.pair(2, 2);
  const double r = cc.hopping.r0;  // scaling = 1 there
  std::vector<double> h(81);
  sk_pair_block_into(cc, 9, 9, {0, 0, r}, r, h.data(), nullptr);
  const auto at = [&](int a, int b) { return h[9 * a + b]; };
  const SkIntegrals& v = cc.integrals;

  // Orbital order: [s, px, py, pz, dxy, dyz, dzx, dx2y2, dz2].
  EXPECT_NEAR(at(0, 0), v.sss, 1e-12);
  EXPECT_NEAR(at(0, 3), v.sps, 1e-12);
  EXPECT_NEAR(at(3, 0), -v.sps, 1e-12);  // homonuclear: pss tied to sps
  EXPECT_NEAR(at(3, 3), v.pps, 1e-12);
  EXPECT_NEAR(at(1, 1), v.ppp, 1e-12);
  // s-d: only dz2 couples along the axis.
  EXPECT_NEAR(at(0, 8), v.sds, 1e-12);
  EXPECT_NEAR(at(8, 0), v.sds, 1e-12);  // even parity
  EXPECT_NEAR(at(0, 4), 0.0, 1e-12);
  EXPECT_NEAR(at(0, 7), 0.0, 1e-12);
  // p-d: pz-dz2 is pure sigma, px-dzx pure pi; reversal flips the sign.
  EXPECT_NEAR(at(3, 8), v.pds, 1e-12);
  EXPECT_NEAR(at(8, 3), -v.pds, 1e-12);
  EXPECT_NEAR(at(1, 6), v.pdp, 1e-12);
  EXPECT_NEAR(at(6, 1), -v.pdp, 1e-12);
  // d-d: dz2 sigma, {dyz, dzx} pi, {dxy, dx2y2} delta.
  EXPECT_NEAR(at(8, 8), v.dds, 1e-12);
  EXPECT_NEAR(at(5, 5), v.ddp, 1e-12);
  EXPECT_NEAR(at(6, 6), v.ddp, 1e-12);
  EXPECT_NEAR(at(4, 4), v.ddd, 1e-12);
  EXPECT_NEAR(at(7, 7), v.ddd, 1e-12);
  // No off-diagonal d-d coupling on-axis.
  EXPECT_NEAR(at(4, 8), 0.0, 1e-12);
  EXPECT_NEAR(at(5, 6), 0.0, 1e-12);
}

TEST(SkPairBlock, HeteronuclearReversedBondIsTranspose) {
  // A-B hopping block for bond d must equal the transpose of the B-A block
  // for bond -d, for every mixed pair (1x4, 4x9, 1x9) and the homonuclear
  // spd pair.
  const TbModel m = toy_multi_model();
  const int dims[3] = {1, 4, 9};
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 d = random_unit(rng) * rng.uniform(1.2, 3.4);
    const double r = norm(d);
    for (int si = 0; si < 3; ++si) {
      for (int sj = 0; sj < 3; ++sj) {
        const int bi = dims[si];
        const int bj = dims[sj];
        std::vector<double> fwd(static_cast<std::size_t>(bi * bj));
        std::vector<double> rev(static_cast<std::size_t>(bj * bi));
        sk_pair_block_into(m.pair(si, sj), bi, bj, d, r, fwd.data(), nullptr);
        sk_pair_block_into(m.pair(sj, si), bj, bi, -d, r, rev.data(), nullptr);
        for (int a = 0; a < bi; ++a) {
          for (int b = 0; b < bj; ++b) {
            EXPECT_NEAR(fwd[bj * a + b], rev[bi * b + a], 1e-12)
                << "pair (" << si << "," << sj << ") entry (" << a << "," << b
                << ")";
          }
        }
      }
    }
  }
}

TEST(SkPairBlock, DerivativesMatchFiniteDifferences) {
  const TbModel m = toy_multi_model();
  const int dims[3] = {1, 4, 9};
  Rng rng(29);
  const double eps = 1e-6;
  for (int trial = 0; trial < 6; ++trial) {
    const Vec3 d0 = random_unit(rng) * rng.uniform(1.4, 3.2);
    for (int si = 0; si < 3; ++si) {
      for (int sj = 0; sj < 3; ++sj) {
        const int bi = dims[si];
        const int bj = dims[sj];
        const std::size_t sz = static_cast<std::size_t>(bi * bj);
        const PairParams& pp = m.pair(si, sj);
        std::vector<double> h(sz), der(3 * sz), hp(sz), hm(sz);
        sk_pair_block_into(pp, bi, bj, d0, norm(d0), h.data(), der.data());
        for (int g = 0; g < 3; ++g) {
          Vec3 dp = d0, dm = d0;
          (g == 0 ? dp.x : g == 1 ? dp.y : dp.z) += eps;
          (g == 0 ? dm.x : g == 1 ? dm.y : dm.z) -= eps;
          sk_pair_block_into(pp, bi, bj, dp, norm(dp), hp.data(), nullptr);
          sk_pair_block_into(pp, bi, bj, dm, norm(dm), hm.data(), nullptr);
          for (std::size_t q = 0; q < sz; ++q) {
            const double fd = (hp[q] - hm[q]) / (2.0 * eps);
            EXPECT_NEAR(der[sz * g + q], fd, 2e-6)
                << "pair (" << si << "," << sj << ") gamma " << g << " entry "
                << q;
          }
        }
      }
    }
  }
}

TEST(SkPairBlock, ZeroBeyondCutoff) {
  const TbModel m = toy_multi_model();
  const PairParams& cc = m.pair(2, 2);
  std::vector<double> h(81, 1.0), d(243, 1.0);
  const Vec3 far = {0.0, 0.0, cc.hopping.r_cut + 0.1};
  sk_pair_block_into(cc, 9, 9, far, norm(far), h.data(), d.data());
  for (const double x : h) EXPECT_EQ(x, 0.0);
  for (const double x : d) EXPECT_EQ(x, 0.0);
}

}  // namespace
}  // namespace tbmd::tb
