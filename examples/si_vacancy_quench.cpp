/// \file si_vacancy_quench.cpp
/// \brief Lewis-Mousseau-style defect workload on the O(N) engine: a cold
/// Si crystal, a vacancy punched mid-run, then a fast heat/quench cycle --
/// while watching the purification pattern cache respond to topology churn.
///
/// Along an MD trajectory the bond topology is unchanged on most steps, so
/// the O(N) engine re-runs only the numeric SpMM phase on frozen symbolic
/// patterns.  Real defect workloads break that steady state in ways this
/// example exercises deliberately:
///   * the vacancy changes the atom count -> the BondTable topology stamp
///     bumps and the cache drops every entry (one symbolic rebuild);
///   * thermal motion makes second-shell distances cross the hopping
///     cutoff -- for GSP silicon the 2nd shell (3.84 A) brackets
///     r_cut = 3.8 A, so even modest temperatures keep flipping bonds and
///     the symbolic share climbs with T;
///   * the hot stage adds diffusive rebonding on top, the worst case.
/// The per-stage symbolic/numeric split printed below makes the cost of
/// each regime measurable.
///
/// Run: ./si_vacancy_quench [n_steps_per_stage]

#include <cstdio>
#include <cstdlib>

#include "src/analysis/rdf.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/thermostat.hpp"
#include "src/md/velocities.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"

namespace {

/// Print the symbolic/numeric SpMM split accumulated since `before`.
void report_stage(const char* label, const tbmd::onx::OrderNCalculator& on,
                  tbmd::onx::BsrWorkspace::SpmmStats& before) {
  const auto& now = on.spmm_stats();
  const std::size_t symbolic = now.symbolic_builds - before.symbolic_builds;
  const std::size_t numeric = now.numeric_reuses - before.numeric_reuses;
  const double total = static_cast<double>(symbolic + numeric);
  std::printf("  %-28s  symbolic %6zu   numeric %6zu   (%.1f%% reused)\n",
              label, symbolic, numeric,
              total > 0.0 ? 100.0 * numeric / total : 0.0);
  before = now;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbmd;
  const long stage_steps = argc > 1 ? std::atol(argv[1]) : 150;

  System si = structures::diamond(Element::Si, 5.431, 2, 2, 2);

  onx::OrderNCalculator on(tb::gsp_silicon(), CalculatorSpec::order_n(1e-6));
  onx::BsrWorkspace::SpmmStats mark;

  std::printf("Si vacancy + quench on the O(N) engine (%zu atoms)\n\n",
              si.size());

  // Stage 1: cold crystal (no velocities) -- the frozen-topology steady
  // state: one symbolic build on the first step, numeric-only after.
  {
    md::MdDriver driver(si, on, {1.5});
    driver.run(stage_steps);
    report_stage("crystal 0 K", on, mark);
  }

  // Stage 2: punch a vacancy.  The atom count changes, so the BondTable
  // topology stamp bumps and the next step pays a symbolic rebuild; the
  // relaxing neighbors then perturb second-shell bonds around the defect.
  const std::uint64_t stamp_before = on.topology_version();
  si = structures::with_vacancy(si, si.size() / 2);
  {
    md::MdDriver driver(si, on, {1.5});
    driver.run(stage_steps);
    report_stage("vacancy (relaxing)", on, mark);
  }
  std::printf("  topology stamp %llu -> %llu across the vacancy\n\n",
              static_cast<unsigned long long>(stamp_before),
              static_cast<unsigned long long>(on.topology_version()));

  // Stage 3: heat to 2500 K -- thermal cutoff-crossing plus diffusive
  // rebonding; nearly every step pays the symbolic phase.
  {
    md::MdOptions opt;
    opt.dt = 1.0;
    opt.thermostat =
        md::ThermostatSpec::nose_hoover(2500.0, 40.0, 2);
    md::MdDriver driver(si, on, std::move(opt));
    driver.ramp_temperature(2500.0, stage_steps);
    driver.run(stage_steps);
    report_stage("hot 2500 K (diffusive)", on, mark);
  }

  // Stage 4: quench back to 300 K.  The network refreezes, but for Si the
  // 2nd-shell/cutoff bracketing keeps a residual flip rate even at 300 K --
  // the quenched stage lands between the frozen and diffusive extremes.
  analysis::RdfAccumulator rdf(5.4, 54);
  {
    md::MdOptions opt;
    opt.dt = 1.0;
    opt.thermostat =
        md::ThermostatSpec::nose_hoover(300.0, 40.0, 2);
    md::MdDriver driver(si, on, std::move(opt));
    driver.ramp_temperature(300.0, 2 * stage_steps);
    driver.run(stage_steps, [&](const md::MdDriver& d, long step) {
      if (step % 25 == 0) rdf.add_frame(d.system());
    });
    report_stage("quenched 300 K (amorphous)", on, mark);
  }

  const auto r = rdf.r_values();
  const auto g = rdf.g_of_r();
  std::printf("\n g(r) of the quenched defective network\n  r_A    g\n");
  for (std::size_t b = 0; b < r.size(); b += 6) {
    std::printf("  %.2f   %.2f\n", r[b], g[b]);
  }
  std::printf("\nlast purification: %d iterations, fill %.3f, %s\n",
              on.last_purification().iterations,
              on.last_purification().fill_fraction,
              on.last_purification().converged ? "converged" : "NOT converged");
  return 0;
}
