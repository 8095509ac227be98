/// \file exp_f2_speedup.cpp
/// \brief EXP-F2 -- Figure 2: parallel speedup and efficiency vs thread
/// count for the phases of a TBMD step (and the raw eigensolver).
///
/// The paper reported message-passing speedups on a 1994 supercomputer;
/// the shared-memory analog sweeps the OpenMP thread count available on
/// this machine and reports per-phase speedup and parallel efficiency.

#include <cstdio>
#include <iostream>
#include <vector>

#include "src/io/table.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/util/parallel.hpp"
#include "src/util/random.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace tbmd;

struct PhaseTimes {
  double bondtable = 0.0;
  double hamiltonian = 0.0;
  double diagonalize = 0.0;
  double density = 0.0;
  double forces = 0.0;
  double total = 0.0;
};

PhaseTimes measure_step(System& s, int steps) {
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  (void)calc.compute(s);  // warm up (neighbor list and allocations)
  StepReport sum;
  for (int q = 0; q < steps; ++q) {
    (void)calc.compute(s);
    const StepReport& r = calc.step_report();
    for (std::size_t k = 0; k < kPhaseCount; ++k) {
      sum.seconds[k] += r.seconds[k];
    }
  }
  PhaseTimes out;
  out.bondtable = sum.phase_seconds(Phase::kBondTable) / steps;
  out.hamiltonian = sum.phase_seconds(Phase::kHamiltonian) / steps;
  out.diagonalize = sum.phase_seconds(Phase::kDiagonalize) / steps;
  out.density = sum.phase_seconds(Phase::kDensity) / steps;
  out.forces = sum.phase_seconds(Phase::kForces) / steps;
  out.total = sum.total_seconds() / steps;
  return out;
}

}  // namespace

int main() {
  const int max_threads = par::max_threads();
  std::printf("EXP-F2: OpenMP speedup per TBMD phase (machine has %d threads)\n\n",
              max_threads);

  System s = structures::diamond(Element::C, 3.567, 3, 3, 3);  // 216 atoms
  structures::perturb(s, 0.02, 5);

  io::Table table({"threads", "bondtable_s", "H_build_s", "diag_s",
                   "density_s", "forces_s", "step_s", "step_speedup",
                   "efficiency_pct"});

  double t1_total = 0.0;
  for (int threads = 1; threads <= max_threads; ++threads) {
    par::set_num_threads(threads);
    const PhaseTimes pt = measure_step(s, 2);
    if (threads == 1) t1_total = pt.total;
    const double speedup = t1_total / pt.total;
    table.add_numeric_row({static_cast<double>(threads), pt.bondtable,
                           pt.hamiltonian,
                           pt.diagonalize, pt.density, pt.forces, pt.total,
                           speedup, 100.0 * speedup / threads},
                          4);
    std::printf("  measured %d thread(s)\n", threads);
  }
  par::set_num_threads(max_threads);

  std::printf("\n");
  table.print(std::cout);
  table.write_csv("exp_f2_speedup.csv");

  // Raw eigensolver scaling with threads at a few matrix sizes.
  std::printf("\nraw symmetric eigensolver wall time (s):\n");
  io::Table eig_table({"n_matrix", "threads_1", "threads_max", "speedup"});
  Rng rng(9);
  for (const std::size_t n : {256u, 512u, 768u}) {
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = rng.uniform(-1, 1);
        a(i, j) = v;
        a(j, i) = v;
      }
    }
    par::set_num_threads(1);
    WallTimer w1;
    (void)linalg::eigh(a);
    const double t1 = w1.seconds();
    par::set_num_threads(max_threads);
    WallTimer w2;
    (void)linalg::eigh(a);
    const double tm = w2.seconds();
    eig_table.add_numeric_row({static_cast<double>(n), t1, tm, t1 / tm}, 4);
  }
  eig_table.print(std::cout);
  eig_table.write_csv("exp_f2_eigensolver.csv");
  std::printf("\nExpected shape: speedup > 1 and efficiency decreasing\n"
              "moderately with thread count; diagonalization dominates\n"
              "and limits the overall step speedup (Amdahl).\n");
  return 0;
}
