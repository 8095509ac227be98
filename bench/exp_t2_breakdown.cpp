/// \file exp_t2_breakdown.cpp
/// \brief EXP-T2 -- Table 2: per-phase wall-clock breakdown of one TBMD
/// step vs system size.
///
/// The signature table of an SC'94 TBMD paper: where does the time go?
/// The diagonalization share must grow towards 100% as N grows (O(N^3)
/// against O(N) for every other phase).

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "src/io/table.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"

int main() {
  using namespace tbmd;
  std::printf("EXP-T2: per-phase wall-clock breakdown of a TBMD step\n\n");

  struct CellSpec {
    int nx, ny, nz;
  };
  const std::vector<CellSpec> cells{{2, 2, 2}, {2, 2, 4}, {3, 3, 3}, {3, 3, 4}};

  io::Table table({"N_atoms", "neighbors_ms", "bondtable_ms", "H_build_ms",
                   "diag_ms", "density_ms", "forces_ms", "repulsive_ms",
                   "total_ms", "diag_share_pct"});

  for (const auto& spec : cells) {
    System s = structures::diamond(Element::C, 3.567, spec.nx, spec.ny,
                                   spec.nz);
    md::maxwell_boltzmann_velocities(s, 300.0, 7);
    tb::TightBindingCalculator calc(tb::xwch_carbon());
    md::MdDriver driver(s, calc, {1.0});

    const int steps = 3;
    StepReport sum;
    driver.run(steps, [&](const md::MdDriver&, long) {
      const StepReport& r = calc.step_report();
      for (std::size_t k = 0; k < kPhaseCount; ++k) {
        sum.seconds[k] += r.seconds[k];
      }
    });

    auto ms = [&](Phase phase) {
      return 1000.0 * sum.phase_seconds(phase) / steps;
    };
    const double total = 1000.0 * sum.total_seconds() / steps;
    table.add_numeric_row(
        {static_cast<double>(s.size()), ms(Phase::kNeighbors),
         ms(Phase::kBondTable), ms(Phase::kHamiltonian),
         ms(Phase::kDiagonalize), ms(Phase::kDensity), ms(Phase::kForces),
         ms(Phase::kRepulsive), total,
         100.0 * ms(Phase::kDiagonalize) / total},
        4);
    std::printf("  measured N = %zu\n", s.size());
  }

  std::printf("\n");
  table.print(std::cout);
  table.write_csv("exp_t2_breakdown.csv");
  std::printf("\nExpected shape: diag_share_pct grows monotonically with N\n"
              "(O(N^3) diagonalization vs O(N) everything else).\n");
  return 0;
}
