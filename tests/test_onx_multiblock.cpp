// Tests for the O(N) layer on mixed orbital blocks (bs in {1, 4, 9}):
// blocked Hamiltonian assembly against the dense reference on a
// multi-species system, the Hellmann-Feynman contraction over mixed tiles,
// and canonical purification on a variable block layout.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/linalg/eigen_sym.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/onx/purification.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/radial.hpp"
#include "src/tb/tb_model.hpp"

namespace tbmd::onx {
namespace {

tb::RadialScaling test_scaling() {
  tb::RadialScaling sc;
  sc.r0 = 2.0;
  sc.n = 2.0;
  sc.nc = 6.0;
  sc.rc = 3.0;
  sc.r_taper = 3.2;
  sc.r_cut = 3.6;
  return sc;
}

/// Three-species model (H: s-only, C: sp, Au: spd) with every integral a
/// pair can carry populated -- the mixed-tile stress case.
tb::TbModel toy_multi_model() {
  tb::TbModel m;
  m.name = "toy-multi";
  m.repulsion_kind = tb::RepulsionKind::kPairSum;
  tb::SpeciesParams a{tbmd::Element::H, 1, -3.0, 0.0, 0.0};
  tb::SpeciesParams b{tbmd::Element::C, 4, -2.5, 3.5, 0.0};
  tb::SpeciesParams c{tbmd::Element::Au, 9, -4.5, 1.3, -7.5};
  m.set_species({a, b, c});

  tb::PairParams ab;
  ab.integrals.sss = -1.1;
  ab.integrals.sps = 1.6;
  ab.hopping = test_scaling();
  ab.phi0 = 1.0;
  ab.repulsive = test_scaling();
  m.set_pair(0, 1, ab);

  tb::PairParams bc;
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

  tb::PairParams cc;
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

  tb::PairParams aa = ab;
  aa.integrals = {};
  aa.integrals.sss = -1.3;
  m.set_pair(0, 0, aa);
  tb::PairParams bb = ab;
  bb.integrals = {};
  bb.integrals.sss = -1.0;
  bb.integrals.sps = 1.5;
  bb.integrals.pps = 2.0;
  bb.integrals.ppp = -0.4;
  m.set_pair(1, 1, bb);
  tb::PairParams ac = ab;
  ac.integrals = {};
  ac.integrals.sss = -0.8;
  ac.integrals.sds = -0.5;
  m.set_pair(0, 2, ac);
  return m;
}

/// Simple-cubic mixed crystal: 27 sites at 2.7 A spacing (cell 8.1 A, large
/// enough for the 3.6 A test cutoff plus skin), species cycling H / C / Au
/// so every pair kind (1x1 ... 9x9) occurs within range.
System mixed_crystal() {
  const double a = 2.7;
  System s(Cell::cubic(3 * a));
  const tbmd::Element kinds[3] = {tbmd::Element::H, tbmd::Element::C,
                                  tbmd::Element::Au};
  int k = 0;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      for (int z = 0; z < 3; ++z, ++k) {
        s.add_atom(kinds[k % 3], {a * x, a * y, a * z});
      }
    }
  }
  structures::perturb(s, 0.05, 23);
  return s;
}

TEST(MixedBlocks, BlockHamiltonianMatchesDense) {
  const tb::TbModel m = toy_multi_model();
  const System s = mixed_crystal();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);

  const linalg::Matrix hd = tb::build_hamiltonian(m, s, list);
  const BlockSparseMatrix hb = build_block_hamiltonian(m, s, table);
  EXPECT_FALSE(hb.uniform_blocks());
  EXPECT_EQ(hb.block_rows(), s.size());
  ASSERT_EQ(hb.size(), hd.rows());
  const linalg::Matrix back = hb.to_dense();
  for (std::size_t i = 0; i < hb.size(); ++i) {
    for (std::size_t j = 0; j < hb.size(); ++j) {
      EXPECT_NEAR(back(i, j), hd(i, j), 1e-13) << i << "," << j;
    }
  }
}

TEST(MixedBlocks, BandForcesSparseMatchesDenseContraction) {
  const tb::TbModel m = toy_multi_model();
  const System s = mixed_crystal();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocksAndDerivatives);

  // Spin-summed density from exact diagonalization (T = 0); the blocked
  // contraction takes the spinless P = rho / 2.
  const linalg::Matrix hd = tb::build_hamiltonian(m, s, list);
  const auto eig = linalg::eigh(hd);
  const auto occ = tb::occupy(eig.values, s.total_valence_electrons(), 0.0);
  const linalg::Matrix rho = tb::density_matrix(eig.vectors, occ.weights);

  Mat3 w_dense{};
  const std::vector<Vec3> f_dense = tb::band_forces(table, rho, &w_dense);

  const std::vector<std::uint32_t> dims = tb::orbital_block_dims(m, s);
  const BlockSparseMatrix p_bsr =
      BlockSparseMatrix::from_dense(rho * 0.5, dims);
  Mat3 w_bsr{};
  const std::vector<Vec3> f_bsr = band_forces_sparse(table, p_bsr, &w_bsr);

  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LT(norm(f_bsr[i] - f_dense[i]), 1e-10) << "atom " << i;
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(w_bsr(r, c), w_dense(r, c), 1e-9);
    }
  }
}

TEST(MixedBlocks, PurificationRunsOnVariableLayout) {
  // The PM loop must accept a variable-block operand end to end (the toy
  // metalloid spectrum need not be gapped, so only the mechanics -- layout
  // preservation, trace targeting -- are asserted, not convergence).
  const tb::TbModel m = toy_multi_model();
  const System s = mixed_crystal();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const BlockSparseMatrix hb = build_block_hamiltonian(m, s, table);

  PurificationOptions opt;
  opt.drop_tolerance = 0.0;
  opt.max_iterations = 60;
  const int nocc = s.total_valence_electrons() / 2;
  const PurificationResult r = palser_manolopoulos(hb, nocc, opt);
  EXPECT_FALSE(r.density.uniform_blocks());
  EXPECT_EQ(r.density.size(), hb.size());
  EXPECT_NEAR(r.density.trace(), static_cast<double>(nocc), 1e-6);
}

}  // namespace
}  // namespace tbmd::onx
