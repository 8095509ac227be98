// Tests for the per-step BondTable subsystem: batched Slater-Koster
// blocks/derivatives and repulsive pair values must match the direct
// per-bond evaluation exactly (including at and beyond the cutoffs), every
// consumer contracting from the table must reproduce a from-scratch
// reference, and the assembled bond-table pipeline must stay consistent
// with finite-difference forces and the strain-derivative virial at both
// zero and finite electronic temperature.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/linalg/eigen_sym.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/radial.hpp"
#include "src/tb/repulsive.hpp"
#include "src/tb/slater_koster.hpp"
#include "src/tb/tb_calculator.hpp"

namespace tbmd::tb {
namespace {

struct GasSetup {
  System system;
  NeighborList list;
};

/// Random disordered gas built out to cutoff + a fat skin, so the list (and
/// thus the table) contains bonds beyond the hopping and repulsive cutoffs.
GasSetup random_setup(const TbModel& m, std::size_t n, std::uint64_t seed) {
  GasSetup s{structures::random_gas(m.species[0].element, n, 0.025, 1.3, seed),
             {}};
  s.list.build(s.system.positions(), s.system.cell(), {m.cutoff(), 0.8});
  return s;
}

TEST(BondTable, BlocksAndDerivativesMatchDirectEvaluation) {
  for (const TbModel& m : {xwch_carbon(), gsp_silicon()}) {
    const PairParams& pp = m.pair(0, 0);
    GasSetup s = random_setup(
        m, 40, 7 + static_cast<std::uint64_t>(m.species[0].element));
    BondTable table;
    table.build(m, s.system, s.list, BondTable::Mode::kBlocksAndDerivatives);
    ASSERT_EQ(table.size(), s.list.half_pairs().size());
    ASSERT_TRUE(table.has_derivatives());

    std::size_t beyond_cutoff = 0;
    const auto& pos = s.system.positions();
    for (std::size_t p = 0; p < table.size(); ++p) {
      const NeighborPair& pr = s.list.half_pairs()[p];
      EXPECT_EQ(table.i(p), pr.i);
      EXPECT_EQ(table.j(p), pr.j);
      const Vec3 bond = pos[pr.j] + pr.shift - pos[pr.i];
      EXPECT_DOUBLE_EQ(table.length(p), norm(bond));

      double block[16];
      double deriv[48];
      sk_pair_block_into(pp, 4, 4, bond, norm(bond), block, deriv);
      const double* h = table.block(p);
      for (int q = 0; q < 16; ++q) {
        EXPECT_DOUBLE_EQ(h[q], block[q]);
        for (int g = 0; g < 3; ++g) {
          EXPECT_DOUBLE_EQ(table.derivative(p, g)[q], deriv[16 * g + q]);
        }
      }
      if (table.hopping_zero(p)) {
        ++beyond_cutoff;
        EXPECT_GE(table.length(p), pp.hopping.r_cut);
      }

      const RadialValue rep = evaluate_scaling(pp.repulsive, norm(bond));
      EXPECT_DOUBLE_EQ(table.repulsive_value(p), pp.phi0 * rep.value);
      EXPECT_DOUBLE_EQ(table.repulsive_derivative(p), pp.phi0 * rep.derivative);
    }
    // The fat skin must actually have produced beyond-cutoff bonds, or this
    // test is not exercising the zero-block path.
    EXPECT_GT(beyond_cutoff, 0u);
  }
}

TEST(BondTable, ZeroBlockExactlyAtAndBeyondCutoff) {
  const TbModel m = xwch_carbon();
  const double r_cut = m.pair(0, 0).hopping.r_cut;
  for (const double r : {r_cut, r_cut + 0.25}) {
    System s = structures::dimer(Element::C, r);
    NeighborList list;
    list.build(s.positions(), s.cell(), {m.cutoff() + 1.0, 0.3});
    BondTable table;
    table.build(m, s, list, BondTable::Mode::kBlocksAndDerivatives);
    ASSERT_EQ(table.size(), 1u);
    EXPECT_TRUE(table.hopping_zero(0));
    for (int e = 0; e < 16; ++e) {
      EXPECT_DOUBLE_EQ(table.block(0)[e], 0.0);
      for (int g = 0; g < 3; ++g) {
        EXPECT_DOUBLE_EQ(table.derivative(0, g)[e], 0.0);
      }
    }
  }
}

TEST(BondTable, AdjacencyCoversEveryBondTwiceSortedByNeighbor) {
  const TbModel m = gsp_silicon();
  GasSetup s = random_setup(m, 40, 23);
  BondTable table;
  table.build(m, s.system, s.list, BondTable::Mode::kBlocks);
  EXPECT_FALSE(table.has_derivatives());
  EXPECT_FALSE(table.has_repulsive());  // kBlocks: hopping radial only

  std::size_t entries = 0;
  std::vector<int> seen(table.size(), 0);
  for (std::size_t a = 0; a < table.atoms(); ++a) {
    std::size_t last = 0;
    for (const BondTable::AtomBond* ab = table.atom_begin(a);
         ab != table.atom_end(a); ++ab, ++entries) {
      EXPECT_GE(ab->neighbor, last);
      last = ab->neighbor;
      ++seen[ab->bond];
      const bool is_i = table.i(ab->bond) == a;
      const bool is_j = table.j(ab->bond) == a;
      EXPECT_TRUE(ab->transposed ? is_j : is_i);
      EXPECT_EQ(ab->neighbor, ab->transposed ? table.i(ab->bond)
                                             : table.j(ab->bond));
    }
  }
  EXPECT_EQ(entries, 2 * table.size());
  for (const int count : seen) EXPECT_EQ(count, 2);
}

TEST(BondTable, TopologyVersionTracksPatternChangesOnly) {
  // The stamp feeds the O(N) engine's SpMM pattern cache: it must stay
  // put across value-only rebuilds (atoms jiggle, bonds persist) and bump
  // for anything that can change the Hamiltonian pattern -- including a
  // bond crossing the hopping cutoff with the pair list unchanged.
  const TbModel m = xwch_carbon();
  const double r_cut = m.pair(0, 0).hopping.r_cut;
  System s = structures::dimer(Element::C, 0.8 * r_cut);
  NeighborList list;
  const double skin = 0.6 * r_cut;  // pair survives the crossing
  list.build(s.positions(), s.cell(), {m.cutoff(), skin});

  BondTable table;
  EXPECT_EQ(table.topology_version(), 0u);  // only before the first build
  table.build(m, s, list, BondTable::Mode::kBlocks);
  const std::uint64_t v1 = table.topology_version();
  EXPECT_GT(v1, 0u);

  // Rebuild at identical positions: same topology, same stamp.
  table.build(m, s, list, BondTable::Mode::kBlocks);
  EXPECT_EQ(table.topology_version(), v1);

  // Stretch the bond (the dimer lies along z) but stay inside the hopping
  // cutoff: values change, topology does not.
  s.positions()[1].z = s.positions()[0].z + 0.9 * r_cut;
  table.build(m, s, list, BondTable::Mode::kBlocks);
  EXPECT_EQ(table.topology_version(), v1);
  ASSERT_FALSE(table.hopping_zero(0));

  // Push the bond just past the hopping cutoff WITHOUT rebuilding the
  // neighbor list (the pair persists inside cutoff + skin): the
  // hopping_zero flip alone must bump the stamp.
  s.positions()[1].z = s.positions()[0].z + 1.05 * r_cut;
  table.build(m, s, list, BondTable::Mode::kBlocks);
  ASSERT_TRUE(table.hopping_zero(0));
  const std::uint64_t v2 = table.topology_version();
  EXPECT_GT(v2, v1);

  // A different pair list (atom-count change) bumps it too.
  GasSetup gas = random_setup(m, 12, 3);
  table.build(m, gas.system, gas.list, BondTable::Mode::kBlocks);
  EXPECT_GT(table.topology_version(), v2);
}

TEST(BondTable, SkinReuseFreezesQuiescentBondsAndTracksMovers) {
  const TbModel m = xwch_carbon();
  GasSetup s = random_setup(m, 40, 57);
  const double skin = 0.1;

  BondTable table;
  table.build(m, s.system, s.list, BondTable::Mode::kBlocksAndDerivatives,
              skin);
  const std::size_t nb = table.size();
  ASSERT_GT(nb, 0u);
  // The first build primes the anchors: everything evaluated, no reuse.
  EXPECT_EQ(table.reuse_stats().evaluated, nb);
  EXPECT_EQ(table.reuse_stats().reused, 0u);
  std::vector<std::vector<double>> before(nb);
  for (std::size_t p = 0; p < nb; ++p) {
    before[p].assign(table.block(p), table.block(p) + 16);
  }
  const std::uint64_t v1 = table.topology_version();

  // Rebuild at identical positions: every bond frozen at its stored
  // values, the evaluated count does not move, the stamp does not move.
  table.build(m, s.system, s.list, BondTable::Mode::kBlocksAndDerivatives,
              skin);
  EXPECT_EQ(table.reuse_stats().reused, nb);
  EXPECT_EQ(table.reuse_stats().evaluated, nb);
  EXPECT_EQ(table.topology_version(), v1);

  // Jiggle every atom below the half-skin and kick atom 0 past it:
  // exactly the bonds touching atom 0 re-evaluate -- to the same bits a
  // reuse-free build produces -- while the quiescent bulk stays frozen at
  // the anchor-position values despite the changed geometry.
  System moved = s.system;
  structures::perturb(moved, 0.01, 5);          // < skin / 2 = 0.05 A
  moved.positions()[0] += Vec3{0.2, 0.0, 0.0};  // crosses the half-skin
  table.build(m, moved, s.list, BondTable::Mode::kBlocksAndDerivatives, skin);

  BondTable fresh;
  fresh.build(m, moved, s.list, BondTable::Mode::kBlocksAndDerivatives);
  std::size_t reeval = 0;
  double frozen_drift = 0.0;
  for (std::size_t p = 0; p < nb; ++p) {
    const double* got = table.block(p);
    if (table.i(p) == 0 || table.j(p) == 0) {
      ++reeval;
      for (int e = 0; e < 16; ++e) {
        EXPECT_EQ(got[e], fresh.block(p)[e]) << "bond " << p;
      }
    } else {
      for (int e = 0; e < 16; ++e) {
        EXPECT_EQ(got[e], before[p][e]) << "bond " << p;
        frozen_drift =
            std::max(frozen_drift, std::fabs(got[e] - fresh.block(p)[e]));
      }
    }
  }
  EXPECT_GT(reeval, 0u);
  EXPECT_EQ(table.reuse_stats().reused, nb + (nb - reeval));
  EXPECT_EQ(table.reuse_stats().evaluated, nb + reeval);
  // The jiggle really changed the geometry: the frozen values are an
  // approximation (bounded by the skin), not accidentally exact.
  EXPECT_GT(frozen_drift, 0.0);

  // A mode change invalidates the anchors (the previous build may not
  // have filled every array): nothing reuses on that build.
  const std::size_t reused_before = table.reuse_stats().reused;
  table.build(m, moved, s.list, BondTable::Mode::kBlocks, skin);
  EXPECT_EQ(table.reuse_stats().reused, reused_before);
}

TEST(BondTable, HamiltonianFromTableMatchesDirectAssembly) {
  const TbModel m = xwch_carbon();
  GasSetup s = random_setup(m, 40, 31);
  BondTable table;
  table.build(m, s.system, s.list, BondTable::Mode::kBlocks);
  const linalg::Matrix h = build_hamiltonian(m, s.system, table);

  // Reference assembled with direct per-bond sk_pair_block_into calls.
  const std::size_t norb = 4 * s.system.size();
  linalg::Matrix ref(norb, norb, 0.0);
  for (std::size_t i = 0; i < s.system.size(); ++i) {
    for (int a = 0; a < 4; ++a) {
      ref(4 * i + a, 4 * i + a) = m.onsite_energy(0, a);
    }
  }
  const auto& pos = s.system.positions();
  for (const NeighborPair& pr : s.list.half_pairs()) {
    const Vec3 d = pos[pr.j] + pr.shift - pos[pr.i];
    double b[16];
    sk_pair_block_into(m.pair(0, 0), 4, 4, d, norm(d), b, nullptr);
    for (int a = 0; a < 4; ++a) {
      for (int c = 0; c < 4; ++c) {
        ref(4 * pr.i + a, 4 * pr.j + c) = b[4 * a + c];
        ref(4 * pr.j + c, 4 * pr.i + a) = b[4 * a + c];
      }
    }
  }
  EXPECT_DOUBLE_EQ(linalg::max_abs(h - ref), 0.0);
}

TEST(BondTable, BandForcesMatchDirectContraction) {
  const TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.05, 37);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  BondTable table;
  table.build(m, s, list, BondTable::Mode::kBlocksAndDerivatives);
  const auto eig = linalg::eigh(build_hamiltonian(m, s, table));
  const auto occ = occupy(eig.values, s.total_valence_electrons(), 0.0);
  const auto rho = density_matrix(eig.vectors, occ.weights);

  Mat3 virial{};
  const auto forces = band_forces(table, rho, &virial);

  // Pre-refactor reference: serial loop, direct per-bond derivative calls.
  std::vector<Vec3> ref(s.size(), Vec3{});
  Mat3 wref{};
  const auto& pos = s.positions();
  for (const NeighborPair& pr : list.half_pairs()) {
    const Vec3 bond = pos[pr.j] + pr.shift - pos[pr.i];
    double block[16];
    double deriv[48];
    sk_pair_block_into(m.pair(0, 0), 4, 4, bond, norm(bond), block, deriv);
    Vec3 dedd{};
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        const double r_ab = rho(4 * pr.i + a, 4 * pr.j + b);
        dedd.x += 2.0 * r_ab * deriv[4 * a + b];
        dedd.y += 2.0 * r_ab * deriv[16 + 4 * a + b];
        dedd.z += 2.0 * r_ab * deriv[32 + 4 * a + b];
      }
    }
    ref[pr.j] -= dedd;
    ref[pr.i] += dedd;
    wref -= outer(bond, dedd);
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(norm(forces[i] - ref[i]), 0.0, 1e-10) << "atom " << i;
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(virial(r, c), wref(r, c), 1e-10);
    }
  }
}

TEST(BondTable, RepulsiveFromTableMatchesDirectEvaluation) {
  // Both repulsion kinds: pair sum (Si) and embedded polynomial (C), via
  // the hopping-free kRepulsiveOnly mode (the list-based wrapper's path).
  for (const TbModel& m : {gsp_silicon(), xwch_carbon()}) {
    const PairParams& pp = m.pair(0, 0);
    GasSetup s = random_setup(
        m, 40, 41 + static_cast<std::uint64_t>(m.species[0].element));
    BondTable table;
    table.build(m, s.system, s.list, BondTable::Mode::kRepulsiveOnly);
    EXPECT_FALSE(table.has_blocks());
    const RepulsiveResult got = repulsive_energy_forces(m, table);

    // Reference straight from the radial function.
    const auto& pos = s.system.positions();
    double eref = 0.0;
    std::vector<Vec3> fref(s.system.size(), Vec3{});
    if (m.repulsion_kind == RepulsionKind::kPairSum) {
      for (const NeighborPair& pr : s.list.half_pairs()) {
        const Vec3 bond = pos[pr.j] + pr.shift - pos[pr.i];
        const double r = norm(bond);
        if (r >= pp.repulsive.r_cut) continue;
        const RadialValue v = evaluate_scaling(pp.repulsive, r);
        eref += pp.phi0 * v.value;
        const Vec3 f = (pp.phi0 * v.derivative / r) * bond;
        fref[pr.i] += f;
        fref[pr.j] -= f;
      }
    } else {
      std::vector<double> x(s.system.size(), 0.0);
      for (const NeighborPair& pr : s.list.half_pairs()) {
        const Vec3 bond = pos[pr.j] + pr.shift - pos[pr.i];
        const double r = norm(bond);
        if (r >= pp.repulsive.r_cut) continue;
        const double phi = pp.phi0 * evaluate_scaling(pp.repulsive, r).value;
        x[pr.i] += phi;
        x[pr.j] += phi;
      }
      std::vector<double> fp(s.system.size(), 0.0);
      for (std::size_t i = 0; i < s.system.size(); ++i) {
        const RadialValue fv = evaluate_polynomial(m.embed_coeff, x[i]);
        eref += fv.value;
        fp[i] = fv.derivative;
      }
      for (const NeighborPair& pr : s.list.half_pairs()) {
        const Vec3 bond = pos[pr.j] + pr.shift - pos[pr.i];
        const double r = norm(bond);
        if (r >= pp.repulsive.r_cut) continue;
        const double der =
            pp.phi0 * evaluate_scaling(pp.repulsive, r).derivative;
        const Vec3 f = ((fp[pr.i] + fp[pr.j]) * der / r) * bond;
        fref[pr.i] += f;
        fref[pr.j] -= f;
      }
    }
    EXPECT_NEAR(got.energy, eref, 1e-10 * std::max(1.0, std::fabs(eref)));
    for (std::size_t i = 0; i < s.system.size(); ++i) {
      EXPECT_NEAR(norm(got.forces[i] - fref[i]), 0.0, 1e-10) << "atom " << i;
    }
  }
}

// --- end-to-end pipeline consistency ------------------------------------

double fd_force(Calculator& calc, System& s, std::size_t atom, int axis,
                double h = 1e-5) {
  Vec3 dr{axis == 0 ? h : 0.0, axis == 1 ? h : 0.0, axis == 2 ? h : 0.0};
  s.positions()[atom] += dr;
  const double ep = calc.compute(s).energy;
  s.positions()[atom] -= 2.0 * dr;
  const double em = calc.compute(s).energy;
  s.positions()[atom] += dr;
  return -(ep - em) / (2.0 * h);
}

class BondTablePipeline : public ::testing::TestWithParam<double> {};

TEST_P(BondTablePipeline, FiniteDifferenceForcesThroughFullStep) {
  // T = 0 (aufbau) and T = 1000 K (Fermi smearing + Mermin free energy):
  // the bond-table pipeline's analytic forces must match the energy's
  // finite-difference derivative end to end.
  const double etemp = GetParam();
  TbModel m = xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  structures::perturb(s, 0.06, 43);
  CalculatorSpec opt;
  opt.electronic_temperature = etemp;
  TightBindingCalculator calc(m, opt);
  const ForceResult r0 = calc.compute(s);

  const double tol = etemp > 0.0 ? 5e-4 : 5e-5;
  for (const std::size_t atom : {std::size_t{0}, s.size() / 2, s.size() - 1}) {
    for (int axis = 0; axis < 3; ++axis) {
      const double fd = fd_force(calc, s, atom, axis);
      const double an = axis == 0   ? r0.forces[atom].x
                        : axis == 1 ? r0.forces[atom].y
                                    : r0.forces[atom].z;
      EXPECT_NEAR(an, fd, tol) << "atom " << atom << " axis " << axis;
    }
  }
}

TEST_P(BondTablePipeline, VirialTraceMatchesIsotropicStrainDerivative) {
  // tr W = -dE/d(ln f) under uniform scaling of cell + positions: checks
  // that the band and repulsive virial accumulations through the bond
  // table stay consistent with the energy they derive from.
  const double etemp = GetParam();
  TbModel m = gsp_silicon();
  System s = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  structures::perturb(s, 0.04, 47);
  CalculatorSpec opt;
  opt.electronic_temperature = etemp;
  opt.skin = 0.0;  // strain changes every distance: always rebuild
  TightBindingCalculator calc(m, opt);
  const ForceResult r = calc.compute(s);

  const double eps = 1e-4;
  auto energy_scaled = [&](double f) {
    System c = s;
    const Mat3& h = s.cell().h();
    c.set_cell(Cell(h.row(0) * f, h.row(1) * f, h.row(2) * f));
    for (Vec3& q : c.positions()) q *= f;
    TightBindingCalculator cc(m, opt);
    return cc.compute(c).energy;
  };
  const double dE_dlnf =
      (energy_scaled(1.0 + eps) - energy_scaled(1.0 - eps)) / (2.0 * eps);
  EXPECT_NEAR(trace(r.virial), -dE_dlnf,
              5e-4 * std::max(1.0, std::fabs(dE_dlnf)));
}

INSTANTIATE_TEST_SUITE_P(ElectronicTemperatures, BondTablePipeline,
                         ::testing::Values(0.0, 1000.0));

}  // namespace
}  // namespace tbmd::tb
