/// \file exp_t3_on_accuracy.cpp
/// \brief EXP-T3 -- Table 3: O(N) purification accuracy and cost versus
/// exact diagonalization.
///
/// Sweeps the truncation threshold of the Palser-Manolopoulos canonical
/// purification on diamond carbon and reports the band-energy error per
/// atom, iteration count, density-matrix fill and wall time, against the
/// exact O(N^3) result.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/io/table.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/onx/purification.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/util/timer.hpp"

int main() {
  using namespace tbmd;
  std::printf("EXP-T3: O(N) purification accuracy vs exact diagonalization\n\n");

  const tb::TbModel model = tb::xwch_carbon();
  io::Table table({"N_atoms", "drop_tol", "dE_band_meV_atom", "iterations",
                   "fill_fraction", "t_purify_ms", "t_diag_ms"});

  for (const int nx : {2, 3}) {
    System s = structures::diamond(Element::C, 3.567, nx, nx, nx);
    structures::perturb(s, 0.02, 13);
    NeighborList list;
    list.build(s.positions(), s.cell(), {model.cutoff(), 0.3});
    const linalg::Matrix hd = tb::build_hamiltonian(model, s, list);
    tb::BondTable bonds;
    bonds.build(model, s, list, tb::BondTable::Mode::kBlocks);
    const onx::BlockSparseMatrix hs =
        onx::build_block_hamiltonian(model, s, bonds);
    const int nocc = s.total_valence_electrons() / 2;

    WallTimer diag_timer;
    const auto vals = linalg::eigvalsh(hd);
    const double t_diag = diag_timer.seconds() * 1000.0;
    const auto occ = tb::occupy(vals, s.total_valence_electrons(), 0.0);

    for (const double drop : {1e-4, 1e-5, 1e-6, 1e-7, 1e-8}) {
      onx::PurificationOptions opt;
      opt.drop_tolerance = drop;
      WallTimer pm_timer;
      const auto pm = onx::palser_manolopoulos(hs, nocc, opt);
      const double t_pm = pm_timer.seconds() * 1000.0;
      const double err_mev =
          1000.0 * std::fabs(pm.band_energy - occ.band_energy) /
          static_cast<double>(s.size());
      table.add_numeric_row({static_cast<double>(s.size()), drop, err_mev,
                             static_cast<double>(pm.iterations),
                             pm.fill_fraction, t_pm, t_diag},
                            4);
    }
    std::printf("  measured N = %zu\n", s.size());
  }

  std::printf("\n");
  table.print(std::cout);
  table.write_csv("exp_t3_on_accuracy.csv");
  std::printf("\nExpected shape: error decreases monotonically with drop_tol;\n"
              "fill fraction (and hence cost) grows as the threshold tightens;\n"
              "for the larger cell the fill is lower at equal tolerance\n"
              "(nearsightedness -> O(N) regime).\n");
  return 0;
}
