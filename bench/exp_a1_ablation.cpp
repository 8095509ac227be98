/// \file exp_a1_ablation.cpp
/// \brief EXP-A1 -- ablation studies of the design decisions:
///   (a) Verlet skin width: rebuild counts and wall time over an MD run,
///   (b) linked-cell binning vs brute-force neighbor search,
///   (c) Householder+QL eigensolver vs the Jacobi reference,
///   (d) velocity Verlet vs 5th-order Gear integration,
///   (e) Palser-Manolopoulos vs SP2 purification on the production path
///       (blocked Hamiltonian, persistent workspace; cold and warm calls).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/gear.hpp"
#include "src/io/table.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/onx/purification.hpp"
#include "src/potentials/lennard_jones.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/bond_table.hpp"
#include "src/util/random.hpp"
#include "src/util/timer.hpp"
#include "tests/eigen_oracle.hpp"
#include "tests/neighbor_oracle.hpp"

int main() {
  using namespace tbmd;
  std::printf("EXP-A1: ablations\n\n");

  // (a) Verlet skin sweep on a classical MD run (500 atoms, 200 steps).
  {
    std::printf("(a) Verlet skin vs rebuild count (Tersoff Si, 216 atoms, "
                "200 steps at 800 K)\n");
    io::Table table({"skin_A", "list_builds", "wall_ms"});
    for (const double skin : {0.0, 0.25, 0.5, 1.0, 1.5}) {
      System s = structures::diamond(Element::Si, 5.431, 3, 3, 3);
      md::maxwell_boltzmann_velocities(s, 800.0, 17);
      potentials::TersoffParams p = potentials::tersoff_silicon();
      p.skin = skin;
      potentials::TersoffCalculator calc(p);
      md::MdDriver driver(s, calc, {1.0});
      WallTimer w;
      driver.run(200);
      // Count rebuilds via a fresh probe list (the calculator's list is
      // private); instead time is the observable + rebuild count from the
      // shared neighbor list statistics of a replayed run.
      NeighborList probe;
      NeighborList::Options opt{p.outer_cutoff(), skin};
      System replay = structures::diamond(Element::Si, 5.431, 3, 3, 3);
      md::maxwell_boltzmann_velocities(replay, 800.0, 17);
      potentials::TersoffCalculator calc2(p);
      md::MdDriver replay_driver(replay, calc2, {1.0});
      std::size_t builds = 0;
      replay_driver.run(200, [&](const md::MdDriver& d, long) {
        if (probe.ensure(d.system().positions(), d.system().cell(), opt)) {
          ++builds;
        }
      });
      table.add_numeric_row({skin, static_cast<double>(builds),
                             w.seconds() * 1000.0},
                            4);
    }
    table.print(std::cout);
    table.write_csv("exp_a1_skin.csv");
    std::printf("expected: rebuilds drop steeply with skin; wall time has a "
                "shallow minimum.\n\n");
  }

  // (b) binned vs brute-force neighbor construction.
  {
    std::printf("(b) neighbor list: linked-cell vs O(N^2) brute force\n");
    io::Table table({"N", "binned_ms", "brute_ms", "ratio"});
    for (const std::size_t n : {250u, 500u, 1000u, 2000u, 4000u}) {
      System s = structures::random_gas(Element::Ar, n, 0.02, 1.5, 3);
      NeighborList list;
      WallTimer wb;
      list.build(s.positions(), s.cell(), {3.0, 0.3});
      const double t_binned = wb.seconds() * 1000.0;
      WallTimer wf;
      (void)brute_force_pairs(s.positions(), s.cell(), 3.3);
      const double t_brute = wf.seconds() * 1000.0;
      table.add_numeric_row({static_cast<double>(n), t_binned, t_brute,
                             t_brute / t_binned},
                            4);
    }
    table.print(std::cout);
    table.write_csv("exp_a1_neighbor.csv");
    std::printf("expected: ratio grows ~linearly with N.\n\n");
  }

  // (c) Householder+QL vs Jacobi.
  {
    std::printf("(c) eigensolver: Householder+QL vs cyclic Jacobi\n");
    io::Table table({"n", "householder_ql_ms", "jacobi_ms", "ratio"});
    Rng rng(7);
    for (const std::size_t n : {64u, 128u, 256u, 384u}) {
      linalg::Matrix a(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          const double v = rng.uniform(-1, 1);
          a(i, j) = v;
          a(j, i) = v;
        }
      }
      WallTimer w1;
      (void)linalg::eigh(a);
      const double t_ql = w1.seconds() * 1000.0;
      WallTimer w2;
      (void)linalg::jacobi_eigh(a);
      const double t_j = w2.seconds() * 1000.0;
      table.add_numeric_row({static_cast<double>(n), t_ql, t_j, t_j / t_ql},
                            4);
    }
    table.print(std::cout);
    table.write_csv("exp_a1_eigensolver.csv");
    std::printf("expected: QL wins by a growing factor (same O(N^3) but far "
                "smaller constant).\n\n");
  }

  // (d) integrator ablation: velocity Verlet vs 5th-order Gear.
  {
    std::printf("(d) integrator: velocity Verlet vs Gear 5th order "
                "(LJ argon, 1 ps)\n");
    io::Table table({"dt_fs", "verlet_rms_meV_atom", "gear_rms_meV_atom"});
    for (const double dt : {1.0, 2.0, 4.0}) {
      auto rms_of = [&](bool use_gear) {
        System s = structures::fcc(Element::Ar, 5.26, 2, 2, 2);
        md::maxwell_boltzmann_velocities(s, 40.0, 21);
        potentials::LennardJonesParams p;
        p.cutoff = 4.8;
        p.skin = 0.4;
        potentials::LennardJonesCalculator calc(p);
        const long steps = static_cast<long>(1000.0 / dt);
        double sum2 = 0.0;
        if (use_gear) {
          md::GearDriver driver(s, calc, dt);
          const double e0 = driver.total_energy();
          for (long q = 0; q < steps; ++q) {
            driver.step();
            const double de = driver.total_energy() - e0;
            sum2 += de * de;
          }
        } else {
          md::MdDriver driver(s, calc, {dt});
          const double e0 = driver.total_energy();
          for (long q = 0; q < steps; ++q) {
            driver.step();
            const double de = driver.total_energy() - e0;
            sum2 += de * de;
          }
        }
        return 1000.0 * std::sqrt(sum2 / steps) / 32.0;  // meV/atom
      };
      table.add_numeric_row({dt, rms_of(false), rms_of(true)}, 4);
    }
    table.print(std::cout);
    table.write_csv("exp_a1_integrator.csv");
    std::printf("expected: Gear wins at small dt (higher order), Verlet "
                "at large dt\n(no long-time symplectic bound for Gear).\n\n");
  }

  // (e) O(N) method ablation: Palser-Manolopoulos vs SP2, both on the
  // engine's own operands -- the symmetric-half blocked Hamiltonian and a
  // persistent workspace whose previous density is recycled into the next
  // call, as OrderNCalculator does.  The cold call pays the symbolic SpMM
  // phases; warm calls reuse the frozen patterns.
  {
    std::printf("(e) purification: PM canonical vs SP2 (drop 1e-7; warm = "
                "median of 7 calls)\n");
    io::Table table({"N_atoms", "pm_iters", "pm_cold_ms", "pm_warm_ms",
                     "sp2_iters", "sp2_cold_ms", "sp2_warm_ms",
                     "dE_meV_atom"});
    using Method = onx::PurificationResult (*)(
        const onx::BlockSparseMatrix&, int, const onx::PurificationOptions&,
        onx::PurificationWorkspace*);
    for (const int nx : {2, 3}) {
      System s = structures::diamond(Element::C, 3.567, nx, nx, nx);
      NeighborList list;
      const tb::TbModel m = tb::model_by_name("c");
      list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
      tb::BondTable bonds;
      bonds.build(m, s, list, tb::BondTable::Mode::kBlocks);
      const onx::BlockSparseMatrix h =
          onx::build_block_hamiltonian(m, s, bonds);
      const int nocc = s.total_valence_electrons() / 2;
      onx::PurificationOptions opt;
      opt.drop_tolerance = 1e-7;

      // {cold ms, warm median ms} of one method; `last` keeps the result.
      const auto time_method = [&](Method method,
                                   onx::PurificationResult& last) {
        onx::PurificationWorkspace ws;
        WallTimer cold;
        last = method(h, nocc, opt, &ws);
        const double t_cold = cold.seconds() * 1000.0;
        std::vector<double> warm;
        for (int rep = 0; rep < 7; ++rep) {
          ws.p = std::move(last.density);
          WallTimer w;
          last = method(h, nocc, opt, &ws);
          warm.push_back(w.seconds() * 1000.0);
        }
        std::nth_element(warm.begin(), warm.begin() + 3, warm.end());
        return std::pair{t_cold, warm[3]};
      };
      onx::PurificationResult pm, sp2;
      const auto [pm_cold, pm_warm] = time_method(&onx::palser_manolopoulos, pm);
      const auto [sp2_cold, sp2_warm] =
          time_method(&onx::sp2_purification, sp2);

      table.add_numeric_row(
          {static_cast<double>(s.size()), static_cast<double>(pm.iterations),
           pm_cold, pm_warm, static_cast<double>(sp2.iterations), sp2_cold,
           sp2_warm,
           1000.0 * std::fabs(pm.band_energy - sp2.band_energy) / s.size()},
          4);
    }
    table.print(std::cout);
    table.write_csv("exp_a1_purification.csv");
    std::printf("expected: SP2 needs more iterations but each costs one\n"
                "multiply instead of two; energies agree to sub-meV/atom.\n");
  }
  return 0;
}
