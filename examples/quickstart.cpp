/// \file quickstart.cpp
/// \brief Minimal tour of the tbmd public API:
///   1. build a structure,
///   2. compute a tight-binding energy and forces,
///   3. run a short NVT molecular-dynamics trajectory,
///   4. print a table of observables.
///
/// Run:  ./quickstart

#include <cstdio>
#include <iostream>
#include <memory>

#include "src/analysis/edos.hpp"
#include "src/io/table.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/thermostat.hpp"
#include "src/md/velocities.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"

int main() {
  using namespace tbmd;

  // 1. A 64-atom silicon diamond supercell (2x2x2 cubic cells).
  System system = structures::diamond(Element::Si, 5.431, 2, 2, 2);
  std::printf("built %zu-atom silicon diamond cell, V = %.1f A^3\n",
              system.size(), system.cell().volume());

  // 2. One tight-binding energy/force evaluation.
  tb::TightBindingCalculator calc(tb::gsp_silicon());
  const ForceResult first = calc.compute(system);
  std::printf("E = %.4f eV  (band %.4f, repulsive %.4f)  gap region mu = %.3f eV\n",
              first.energy, first.band_energy, first.repulsive_energy,
              first.fermi_level);
  const double gap = analysis::homo_lumo_gap(
      first.eigenvalues, system.total_valence_electrons());
  std::printf("HOMO-LUMO gap: %.3f eV\n", gap);

  // 3. 200 fs of canonical (NVT) dynamics at 300 K.
  md::maxwell_boltzmann_velocities(system, 300.0, /*seed=*/2024);
  md::MdOptions opt;
  opt.dt = 1.0;  // fs
  opt.thermostat = md::ThermostatSpec::nose_hoover(300.0, 50.0, 2);
  md::MdDriver driver(system, calc, std::move(opt));

  io::Table table({"time_fs", "T_K", "E_pot_eV", "conserved_eV"});
  StepReport phases;  // per-phase seconds summed over the run's steps
  driver.run(200, [&](const md::MdDriver& d, long step) {
    for (std::size_t k = 0; k < kPhaseCount; ++k) {
      phases.seconds[k] += calc.step_report().seconds[k];
    }
    if (step % 40 == 0) {
      table.add_numeric_row({d.time_fs(), d.system().temperature(),
                             d.last_result().energy, d.conserved_quantity()});
    }
  });
  table.print(std::cout);

  // 4. Wall-clock breakdown of the calculator phases over the 200 steps
  //    (the exact engine never enters the purification phase).
  std::printf("\nphase breakdown (s):\n");
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    if (phases.seconds[k] == 0.0) continue;
    std::printf("  %-12s %.3f\n", phase_name(static_cast<Phase>(k)),
                phases.seconds[k]);
  }
  return 0;
}
