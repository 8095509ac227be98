// Tests for the Slater-Koster s and p shell blocks of the shipped sp3
// models: analytic structure, symmetry relations, rotational invariance,
// and derivative correctness.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

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

/// 4x4 hopping block of a one-species sp model, row-major [alpha][beta].
using Block = std::array<double, 16>;

Block sp_block(const TbModel& m, const Vec3& d) {
  Block h{};
  sk_pair_block_into(m.pair(0, 0), 4, 4, d, norm(d), h.data(), nullptr);
  return h;
}

TEST(SkBlock, BondAlongZHasTextbookStructure) {
  const TbModel m = xwch_carbon();
  const PairParams& pp = m.pair(0, 0);
  const SkIntegrals& v = pp.integrals;
  const double r = pp.hopping.r0;  // scaling = 1 there
  const Block b = sp_block(m, {0, 0, r});

  // s-s
  EXPECT_NEAR(b[0], v.sss, 1e-12);
  // s-pz = V_sps; s-px = s-py = 0
  EXPECT_NEAR(b[3], v.sps, 1e-12);
  EXPECT_NEAR(b[1], 0.0, 1e-12);
  EXPECT_NEAR(b[2], 0.0, 1e-12);
  // pz-s = -V_sps
  EXPECT_NEAR(b[4 * 3], -v.sps, 1e-12);
  // pz-pz = V_pps; px-px = py-py = V_ppp
  EXPECT_NEAR(b[4 * 3 + 3], v.pps, 1e-12);
  EXPECT_NEAR(b[4 * 1 + 1], v.ppp, 1e-12);
  EXPECT_NEAR(b[4 * 2 + 2], v.ppp, 1e-12);
  // no sigma-pi mixing on-axis
  EXPECT_NEAR(b[4 * 1 + 2], 0.0, 1e-12);
  EXPECT_NEAR(b[4 * 1 + 3], 0.0, 1e-12);
}

TEST(SkBlock, ReversedBondIsTranspose) {
  // Hermiticity: <i a|H|j b> for bond d equals <j b|H|i a> for bond -d.
  const TbModel m = xwch_carbon();
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 d = random_unit(rng) * rng.uniform(1.0, 2.4);
    const Block fwd = sp_block(m, d);
    const Block rev = sp_block(m, -d);
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        EXPECT_NEAR(fwd[4 * a + b], rev[4 * b + a], 1e-12);
      }
    }
  }
}

TEST(SkBlock, ZeroBeyondCutoff) {
  const TbModel m = xwch_carbon();
  const Block b = sp_block(m, {0, 0, m.pair(0, 0).hopping.r_cut + 0.01});
  for (const double x : b) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(SkBlock, PPBlockDecomposesIntoSigmaAndPi) {
  // For any direction u: eigenvalues of the 3x3 pp block are
  // {V_pps, V_ppp, V_ppp} scaled by s(r); check via trace and u-projection.
  const TbModel m = gsp_silicon();
  const PairParams& pp = m.pair(0, 0);
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const double r = rng.uniform(2.0, 3.2);
    const Vec3 u = random_unit(rng);
    const Block b = sp_block(m, u * r);
    const double s = evaluate_scaling(pp.hopping, r).value;

    // u^T P u = V_pps * s.
    double upu = 0.0;
    const double uv[3] = {u.x, u.y, u.z};
    for (int p = 0; p < 3; ++p) {
      for (int q = 0; q < 3; ++q) {
        upu += uv[p] * b[4 * (p + 1) + q + 1] * uv[q];
      }
    }
    EXPECT_NEAR(upu, pp.integrals.pps * s, 1e-10);

    // trace = (V_pps + 2 V_ppp) * s.
    const double tr = b[4 * 1 + 1] + b[4 * 2 + 2] + b[4 * 3 + 3];
    EXPECT_NEAR(tr, (pp.integrals.pps + 2.0 * pp.integrals.ppp) * s, 1e-10);
  }
}

TEST(SkBlock, SPRowIsProportionalToDirection) {
  const TbModel m = xwch_carbon();
  const PairParams& pp = m.pair(0, 0);
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const double r = rng.uniform(1.1, 2.3);
    const Vec3 u = random_unit(rng);
    const Block b = sp_block(m, u * r);
    const double s = evaluate_scaling(pp.hopping, r).value;
    EXPECT_NEAR(b[1], u.x * pp.integrals.sps * s, 1e-10);
    EXPECT_NEAR(b[2], u.y * pp.integrals.sps * s, 1e-10);
    EXPECT_NEAR(b[3], u.z * pp.integrals.sps * s, 1e-10);
    // p-s side carries the odd-parity sign.
    EXPECT_NEAR(b[4 * 1], -b[1], 1e-12);
  }
}

class SkDerivative : public ::testing::TestWithParam<int> {};

TEST_P(SkDerivative, MatchesFiniteDifference) {
  const int seed = GetParam();
  Rng rng(seed);
  for (const TbModel& m : {xwch_carbon(), gsp_silicon()}) {
    const PairParams& pp = m.pair(0, 0);
    const double rmin = 0.7 * pp.hopping.r0;
    const double rmax = pp.hopping.r_cut - 0.05;
    const Vec3 d = random_unit(rng) * rng.uniform(rmin, rmax);

    Block block;
    double deriv[48];
    sk_pair_block_into(pp, 4, 4, d, norm(d), block.data(), deriv);

    const double h = 1e-6;
    for (int g = 0; g < 3; ++g) {
      Vec3 dp = d, dm = d;
      if (g == 0) {
        dp.x += h;
        dm.x -= h;
      } else if (g == 1) {
        dp.y += h;
        dm.y -= h;
      } else {
        dp.z += h;
        dm.z -= h;
      }
      const Block bp = sp_block(m, dp);
      const Block bm = sp_block(m, dm);
      for (int q = 0; q < 16; ++q) {
        const double fd = (bp[q] - bm[q]) / (2.0 * h);
        EXPECT_NEAR(deriv[16 * g + q], fd, 2e-5)
            << m.name << " g=" << g << " a=" << q / 4 << " c=" << q % 4;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkDerivative, ::testing::Range(100, 112));

TEST(SkDerivative, ConsistentWithValueOnlyPath) {
  const TbModel m = xwch_carbon();
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 d = random_unit(rng) * rng.uniform(1.0, 2.5);
    Block b1;
    double deriv[48];
    sk_pair_block_into(m.pair(0, 0), 4, 4, d, norm(d), b1.data(), deriv);
    const Block b2 = sp_block(m, d);
    for (int q = 0; q < 16; ++q) EXPECT_DOUBLE_EQ(b1[q], b2[q]);
  }
}

}  // namespace
}  // namespace tbmd::tb
