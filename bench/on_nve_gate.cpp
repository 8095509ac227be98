/// \file on_nve_gate.cpp
/// \brief CI gate for the O(N) engine: force accuracy vs exact
/// diagonalization plus a short NVE energy-conservation slice, with hard
/// bounds and a nonzero exit code on violation.
///
/// Run by the `on-accuracy` workflow job (scheduled + `on-accuracy` PR
/// label) after exp_t3_on_accuracy; unlike the experiment harnesses this
/// program *asserts*:
///   1. max |F_on - F_exact| <= force_bound   (eV/A, step 0, 216 atoms)
///   2. |E_on - E_exact| / N <= energy_bound  (eV/atom)
///   3. NVE conserved-energy drift over the slice <= drift_bound (eV/atom),
///      measured as max deviation from the initial total energy.
///
/// Usage: on_nve_gate [--atoms 216] [--steps 20] [--dt 1.0] [--temp 300]
///                    [--drop 1e-6] [--precision fp64|mixed]
///                    [--force-bound 2e-2]
///                    [--energy-bound 2e-3] [--drift-bound 2e-3]
/// Writes on_nve_gate.csv (per-step energies) for the artifact upload.
/// --precision mixed runs the O(N) engine on the mixed-precision
/// purification loop (fp32 tiles early, fp64 promotion late); the same
/// bounds apply, so the CI mixed job gates the fp32 phase's accuracy
/// against exact diagonalization directly.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/calculator_spec.hpp"
#include "src/io/table.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/util/timer.hpp"

namespace {

double arg_or(int argc, char** argv, const char* name, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

std::string str_arg_or(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbmd;

  const int atoms = static_cast<int>(arg_or(argc, argv, "--atoms", 216));
  const long steps = static_cast<long>(arg_or(argc, argv, "--steps", 20));
  const double dt = arg_or(argc, argv, "--dt", 1.0);
  const double temp = arg_or(argc, argv, "--temp", 300.0);
  const double drop = arg_or(argc, argv, "--drop", 1e-6);
  const PrecisionMode precision = NumericsSpec::precision_by_name(
      str_arg_or(argc, argv, "--precision", "fp64"));
  const double force_bound = arg_or(argc, argv, "--force-bound", 2e-2);
  const double energy_bound = arg_or(argc, argv, "--energy-bound", 2e-3);
  const double drift_bound = arg_or(argc, argv, "--drift-bound", 2e-3);

  const int nx = static_cast<int>(std::lround(std::cbrt(atoms / 8.0)));
  std::printf("ON-NVE gate: %d atoms, %ld steps @ %.2f fs, T0 = %.0f K, "
              "drop = %.1e, precision = %s\n\n", 8 * nx * nx * nx, steps, dt,
              temp, drop, precision == PrecisionMode::kMixed ? "mixed"
                                                             : "fp64");

  const tb::TbModel model = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, nx, nx, nx);
  structures::perturb(s, 0.02, 13);
  md::maxwell_boltzmann_velocities(s, temp, 7);
  const double n = static_cast<double>(s.size());

  // --- 1+2: O(N) forces and energy vs exact diagonalization -------------
  const auto exact = make_calculator(model, s, CalculatorSpec::exact());
  CalculatorSpec on_spec = CalculatorSpec::order_n(drop);
  on_spec.numerics.precision = precision;
  const auto on_calc = make_calculator(model, s, on_spec);
  auto& on = static_cast<onx::OrderNCalculator&>(*on_calc);

  WallTimer t_exact;
  const ForceResult re = exact->compute(s);
  const double ms_exact = t_exact.seconds() * 1000.0;
  WallTimer t_on;
  const ForceResult ro = on.compute(s);
  const double ms_on = t_on.seconds() * 1000.0;

  double worst_force = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    worst_force = std::max(worst_force, norm(re.forces[i] - ro.forces[i]));
  }
  const double energy_err = std::fabs(re.energy - ro.energy) / n;
  const bool converged = on.last_purification().converged;

  std::printf("  exact force call: %8.1f ms\n", ms_exact);
  std::printf("  O(N)  force call: %8.1f ms  (%d PM iterations, fill %.3f)\n",
              ms_on, on.last_purification().iterations,
              on.last_purification().fill_fraction);
  if (precision == PrecisionMode::kMixed) {
    const onx::NumericsStats& st = on.last_purification().numerics;
    std::printf("  precision split : %d fp32 + %d fp64 iterations "
                "(promoted at %d)\n",
                st.fp32_iterations, st.fp64_iterations, st.promoted_at);
  }
  std::printf("  max |dF|        : %10.3e eV/A   (bound %.1e)\n", worst_force,
              force_bound);
  std::printf("  |dE| / atom     : %10.3e eV     (bound %.1e)\n\n", energy_err,
              energy_bound);

  // --- 3: NVE conservation slice on the O(N) engine ----------------------
  io::Table table({"step", "time_fs", "total_eV", "potential_eV",
                   "kinetic_eV", "drift_eV_atom"});
  md::MdDriver driver(s, on, {dt});
  // Baseline BEFORE the first step (the driver's constructor has already
  // evaluated forces), so a one-time energy jump in step 1 is gated too.
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
  table.write_csv("on_nve_gate.csv");
  std::printf("\n  max NVE drift   : %10.3e eV/atom (bound %.1e)\n",
              worst_drift, drift_bound);

  // --- verdict ------------------------------------------------------------
  bool ok = true;
  auto check = [&](bool pass, const char* what) {
    std::printf("  [%s] %s\n", pass ? "ok" : "FAIL", what);
    ok &= pass;
  };
  std::printf("\n");
  check(converged, "purification converged");
  check(worst_force <= force_bound, "O(N) vs exact force error");
  check(energy_err <= energy_bound, "O(N) vs exact energy error");
  check(worst_drift <= drift_bound, "NVE conserved-energy drift");
  return ok ? 0 : 1;
}
