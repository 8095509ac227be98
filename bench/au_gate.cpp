/// \file au_gate.cpp
/// \brief CI gate for the spd Au model (kirchhoff-gold): a short fcc-Au NVE
/// slice on the exact-diagonalization path with Fermi-Dirac smearing, plus
/// a vacancy-formation-energy sanity check, with hard bounds and a nonzero
/// exit code on violation.
///
/// Run by the `on-accuracy` workflow job after on_nve_gate; this program
/// *asserts*:
///   1. fcc Au at the experimental lattice constant is mechanically stable:
///      the unrelaxed vacancy formation energy
///        E_f = E(N-1, vacancy) - (N-1)/N * E(N, bulk)
///      is positive and below an upper sanity bound.
///   2. NVE drift of the conserved quantity (kinetic + Mermin free energy,
///      the invariant of MD with smeared occupations) over the slice stays
///      <= drift_bound (eV/atom), measured as max deviation from the
///      initial total.
///
/// Usage: au_gate [--cells 3] [--steps 20] [--dt 2.0] [--temp 300]
///                [--tel 300] [--drift-bound 2e-3]
///                [--ef-min 0.05] [--ef-max 5.0]
/// Writes au_gate.csv (per-step energies) for the artifact upload.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "src/io/table.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/tb/tb_model.hpp"

namespace {

double arg_or(int argc, char** argv, const char* name, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbmd;

  const int cells = static_cast<int>(arg_or(argc, argv, "--cells", 3));
  const long steps = static_cast<long>(arg_or(argc, argv, "--steps", 20));
  const double dt = arg_or(argc, argv, "--dt", 2.0);
  const double temp = arg_or(argc, argv, "--temp", 300.0);
  const double tel = arg_or(argc, argv, "--tel", 300.0);
  const double drift_bound = arg_or(argc, argv, "--drift-bound", 2e-3);
  const double ef_min = arg_or(argc, argv, "--ef-min", 0.05);
  const double ef_max = arg_or(argc, argv, "--ef-max", 5.0);

  const double a0 = 4.08;  // experimental fcc Au lattice constant (A)
  const tb::TbModel model = tb::kirchhoff_gold();
  CalculatorSpec opt;
  opt.electronic_temperature = tel;
  opt.report_eigenvalues = false;

  System bulk = structures::fcc(Element::Au, a0, cells, cells, cells);
  const double n = static_cast<double>(bulk.size());
  std::printf("Au gate: %zu-atom fcc (a = %.3f A), %ld NVE steps @ %.2f fs, "
              "T0 = %.0f K, T_el = %.0f K\n\n",
              bulk.size(), a0, steps, dt, temp, tel);

  // --- 1: unrelaxed vacancy formation energy -----------------------------
  // Metals must pay energy to remove an atom; a negative E_f would mean the
  // parameterization's band/repulsion balance is broken (the failure mode
  // of an uncalibrated phi0).
  double e_f = 0.0;
  {
    tb::TightBindingCalculator calc(model, opt);
    const double e_bulk = calc.compute(bulk).energy;
    const System vac = structures::with_vacancy(bulk, 0);
    tb::TightBindingCalculator calc_vac(model, opt);
    const double e_vac = calc_vac.compute(vac).energy;
    e_f = e_vac - (n - 1.0) / n * e_bulk;
    std::printf("  E(bulk)         : %12.4f eV (%g atoms)\n", e_bulk, n);
    std::printf("  E(vacancy)      : %12.4f eV (%g atoms)\n", e_vac, n - 1.0);
    std::printf("  E_f (unrelaxed) : %12.4f eV   (bounds [%.2f, %.2f])\n\n",
                e_f, ef_min, ef_max);
  }

  // --- 2: NVE conservation slice (exact path, smeared occupations) -------
  structures::perturb(bulk, 0.03, 17);
  md::maxwell_boltzmann_velocities(bulk, temp, 9);
  tb::TightBindingCalculator calc(model, opt);
  io::Table table({"step", "time_fs", "total_eV", "potential_eV",
                   "kinetic_eV", "drift_eV_atom"});
  md::MdDriver driver(bulk, calc, {dt});
  const double e0 = driver.total_energy();
  double worst_drift = 0.0;
  driver.run(steps, [&](const md::MdDriver& d, long step) {
    const double total = d.total_energy();
    const double drift = std::fabs(total - e0) / n;
    worst_drift = std::max(worst_drift, drift);
    table.add_numeric_row(
        {static_cast<double>(step), d.time_fs(), total, d.last_result().energy,
         d.system().kinetic_energy(), drift},
        6);
  });

  table.print(std::cout);
  table.write_csv("au_gate.csv");
  std::printf("\n  max NVE drift   : %10.3e eV/atom (bound %.1e)\n",
              worst_drift, drift_bound);

  // --- verdict ------------------------------------------------------------
  bool ok = true;
  auto check = [&](bool pass, const char* what) {
    std::printf("  [%s] %s\n", pass ? "ok" : "FAIL", what);
    ok &= pass;
  };
  std::printf("\n");
  check(e_f >= ef_min && e_f <= ef_max, "vacancy formation energy in bounds");
  check(worst_drift <= drift_bound, "NVE conserved-energy drift");
  return ok ? 0 : 1;
}
