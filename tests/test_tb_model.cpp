// Tests for the tight-binding model definitions and radial functions.

#include <gtest/gtest.h>

#include <cmath>

#include "src/tb/radial.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/error.hpp"

namespace tbmd::tb {
namespace {

TEST(Models, ShippedParameterSetsAreSane) {
  const TbModel c = xwch_carbon();
  ASSERT_EQ(c.species_count(), 1u);
  EXPECT_EQ(c.species[0].element, Element::C);
  EXPECT_EQ(c.orbitals(0), 4);
  const SkIntegrals& vc = c.pair(0, 0).integrals;
  EXPECT_LT(vc.sss, 0.0);   // ss sigma is attractive
  EXPECT_GT(vc.sps, 0.0);
  EXPECT_GT(vc.pps, 0.0);
  EXPECT_LT(vc.ppp, 0.0);
  EXPECT_LT(c.onsite_energy(0, 0), c.onsite_energy(0, 1));  // s below p
  EXPECT_GT(c.cutoff(), 2.0);
  EXPECT_EQ(c.repulsion_kind, RepulsionKind::kEmbeddedPolynomial);

  const TbModel si = gsp_silicon();
  ASSERT_EQ(si.species_count(), 1u);
  EXPECT_EQ(si.species[0].element, Element::Si);
  EXPECT_EQ(si.orbitals(0), 4);
  EXPECT_LT(si.pair(0, 0).integrals.sss, 0.0);
  EXPECT_LT(si.onsite_energy(0, 0), si.onsite_energy(0, 1));
  EXPECT_EQ(si.repulsion_kind, RepulsionKind::kPairSum);
  EXPECT_GT(si.cutoff(), 3.0);
}

TEST(Models, LookupByName) {
  EXPECT_EQ(model_by_name("xwch-carbon").species[0].element, Element::C);
  EXPECT_EQ(model_by_name("C").species[0].element, Element::C);
  EXPECT_EQ(model_by_name("gsp-silicon").species[0].element, Element::Si);
  EXPECT_EQ(model_by_name("si").species[0].element, Element::Si);
  EXPECT_THROW((void)model_by_name("unobtainium"), Error);
}

TEST(RadialScaling, UnityAtReferenceDistance) {
  for (const TbModel& m : {xwch_carbon(), gsp_silicon()}) {
    const RadialScaling& hop = m.pair(0, 0).hopping;
    const RadialValue v = evaluate_scaling(hop, hop.r0);
    EXPECT_NEAR(v.value, 1.0, 1e-12) << m.name;
    EXPECT_LT(v.derivative, 0.0) << m.name;  // decays with distance
  }
}

TEST(RadialScaling, MonotonicallyDecreasing) {
  const RadialScaling hop = xwch_carbon().pair(0, 0).hopping;
  double prev = 10.0;
  for (double r = 1.0; r < hop.r_cut; r += 0.02) {
    const double v = evaluate_scaling(hop, r).value;
    EXPECT_LT(v, prev) << "r = " << r;
    EXPECT_GE(v, 0.0);
    prev = v;
  }
}

TEST(RadialScaling, ZeroAtAndBeyondCutoff) {
  const RadialScaling hop = xwch_carbon().pair(0, 0).hopping;
  for (const double r : {hop.r_cut, hop.r_cut + 0.1, 5.0}) {
    const RadialValue v = evaluate_scaling(hop, r);
    EXPECT_DOUBLE_EQ(v.value, 0.0);
    EXPECT_DOUBLE_EQ(v.derivative, 0.0);
  }
}

TEST(RadialScaling, ContinuousAcrossTaperStart) {
  const RadialScaling hop = xwch_carbon().pair(0, 0).hopping;
  const double r1 = hop.r_taper;
  const double below = evaluate_scaling(hop, r1 - 1e-9).value;
  const double above = evaluate_scaling(hop, r1 + 1e-9).value;
  EXPECT_NEAR(below, above, 1e-7);
  // Derivative continuity (the taper is C^1).
  const double dbelow = evaluate_scaling(hop, r1 - 1e-9).derivative;
  const double dabove = evaluate_scaling(hop, r1 + 1e-9).derivative;
  EXPECT_NEAR(dbelow, dabove, 1e-5);
}

TEST(RadialScaling, ContinuousNearHardCutoff) {
  const RadialScaling hop = gsp_silicon().pair(0, 0).hopping;
  const double v = evaluate_scaling(hop, hop.r_cut - 1e-7).value;
  EXPECT_NEAR(v, 0.0, 1e-5);
}

class RadialDerivative : public ::testing::TestWithParam<double> {};

TEST_P(RadialDerivative, MatchesFiniteDifference) {
  const double r = GetParam();
  for (const TbModel& m : {xwch_carbon(), gsp_silicon()}) {
    const PairParams& pp = m.pair(0, 0);
    for (const RadialScaling& p : {pp.hopping, pp.repulsive}) {
      if (r >= p.r_cut - 1e-4) continue;
      const double h = 1e-6;
      const double fplus = evaluate_scaling(p, r + h).value;
      const double fminus = evaluate_scaling(p, r - h).value;
      const double fd = (fplus - fminus) / (2.0 * h);
      const double an = evaluate_scaling(p, r).derivative;
      EXPECT_NEAR(an, fd, 1e-5 * std::max(1.0, std::fabs(fd)))
          << m.name << " at r = " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SampleRadii, RadialDerivative,
                         ::testing::Values(1.1, 1.42, 1.54, 1.9, 2.2, 2.35,
                                           2.5, 2.55, 3.0, 3.45, 3.6, 3.75));

TEST(RadialScaling, ThrowsAtZeroDistance) {
  const RadialScaling hop = xwch_carbon().pair(0, 0).hopping;
  EXPECT_THROW((void)evaluate_scaling(hop, 0.0), Error);
  EXPECT_THROW((void)evaluate_scaling(hop, 1e-9), Error);
}

TEST(Polynomial, ValueAndDerivative) {
  // f(x) = 1 + 2x - x^2 + 0.5 x^3 - 0.25 x^4
  const std::array<double, 5> c{1.0, 2.0, -1.0, 0.5, -0.25};
  for (const double x : {0.0, 0.5, 1.0, -1.5, 3.0}) {
    const RadialValue v = evaluate_polynomial(c, x);
    const double expect =
        1.0 + 2.0 * x - x * x + 0.5 * x * x * x - 0.25 * x * x * x * x;
    const double dexpect = 2.0 - 2.0 * x + 1.5 * x * x - x * x * x;
    EXPECT_NEAR(v.value, expect, 1e-12);
    EXPECT_NEAR(v.derivative, dexpect, 1e-12);
  }
}

TEST(Polynomial, XwchEmbeddingIsNegativeAtZeroCoordination) {
  // f(0) = c0 < 0 for the XWCH fit (free-atom limit of the repulsion).
  const TbModel m = xwch_carbon();
  EXPECT_LT(evaluate_polynomial(m.embed_coeff, 0.0).value, 0.0);
  // and grows with coordination pressure:
  EXPECT_GT(evaluate_polynomial(m.embed_coeff, 30.0).value,
            evaluate_polynomial(m.embed_coeff, 0.0).value);
}

}  // namespace
}  // namespace tbmd::tb
