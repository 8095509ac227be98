/// \file e2e.cpp
/// \brief Timed end-to-end run of one workload, tracing off.
///
///   tbmd_e2e --workload W --seed S --seconds T [--out DIR] [--warmup]
///
/// Prints `workload metric value unit` per metric and, last, one JSON
/// object {correct, attempted, failed, metrics}.  Exits nonzero when a
/// correctness check or an operation fails.  Usually run by run.sh.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"
#include "src/io/logger.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/util/timer.hpp"
#include "workloads.hpp"

namespace {

using namespace tbmd;
using e2e::Report;

/// Fresh set-ups per run; setup_s is their median (the first one runs in a
/// fresh process, after the warm-up process).
constexpr int kSetupReps = 5;
/// A segment running past this many times --seconds is cut short.
constexpr double kSegmentCap = 2.0;

bool finite(const ForceResult& r) {
  if (!std::isfinite(r.energy)) return false;
  for (const Vec3& f : r.forces) {
    if (!std::isfinite(f.x) || !std::isfinite(f.y) || !std::isfinite(f.z)) {
      return false;
    }
  }
  return true;
}

/// Set up kSetupReps times; reports setup_s and returns the last set-up.
std::unique_ptr<e2e::MdRun> timed_setup(const e2e::Args& a, Report& rep) {
  std::vector<double> setup_s;
  std::unique_ptr<e2e::MdRun> run;
  for (int r = 0; r < (a.warmup ? 1 : kSetupReps); ++r) {
    run.reset();
    WallTimer t;
    run = e2e::setup_md(a.workload, a.seed);
    setup_s.push_back(t.seconds());
  }
  if (!a.warmup) {
    rep.metric("setup_s", e2e::median(setup_s), "s");
    rep.metric("setup_s_first", setup_s.front(), "s");
  }
  return run;
}

std::size_t unconverged_steps(const Calculator& calc) {
  const auto* on = dynamic_cast<const onx::OrderNCalculator*>(&calc);
  return on != nullptr ? on->recovery_stats().unconverged_steps : 0;
}

void run_md(const e2e::Args& a, Report& rep) {
  std::unique_ptr<e2e::MdRun> run = timed_setup(a, rep);
  if (a.warmup) {
    run->driver->step();
    return;
  }
  const double n = static_cast<double>(run->c.system.size());

  // Whole segments from the initial state, while the next one still fits
  // in --seconds; a segment is cut short only past kSegmentCap x --seconds
  // (a much slower host), so every commit times the same steps.
  std::vector<double> step_ms;
  long nonfinite = 0;
  long unconverged = 0;
  double drift = 0.0;
  double loop_s = 0.0;
  WallTimer wall;
  for (double last = 0.0; step_ms.empty() || wall.seconds() + last <= a.seconds;) {
    if (!step_ms.empty()) run = e2e::setup_md(a.workload, a.seed);
    md::MdDriver& driver = *run->driver;
    const std::size_t unconverged0 = unconverged_steps(*run->calc);
    const double h0 = driver.conserved_quantity();
    WallTimer segment;
    for (long s = 0; s < run->c.segment_steps &&
                     segment.seconds() < kSegmentCap * a.seconds;
         ++s) {
      WallTimer t;
      driver.step();
      step_ms.push_back(1e3 * t.seconds());
      if (!finite(driver.last_result())) ++nonfinite;
      drift = std::max(drift, std::fabs(driver.conserved_quantity() - h0) / n);
    }
    last = segment.seconds();
    loop_s += last;
    unconverged += static_cast<long>(unconverged_steps(*run->calc) -
                                     unconverged0);
  }
  const auto steps = static_cast<long>(step_ms.size());

  rep.metric("step_ms_p50", e2e::percentile(step_ms, 50.0), "ms");
  rep.metric("step_ms_p90", e2e::percentile(step_ms, 90.0), "ms");
  rep.metric("steps_per_s", static_cast<double>(steps) / loop_s, "1/s");
  rep.metric("peak_rss_mb", e2e::peak_rss_mb(), "MB");
  rep.metric("steps", static_cast<double>(steps), "count");
  rep.metric("drift_eV_atom", drift, "eV/atom");

  rep.operations(steps, nonfinite + unconverged);
  rep.check(nonfinite == 0, std::to_string(nonfinite) + " non-finite steps");
  rep.check(unconverged == 0,
            std::to_string(unconverged) + " unconverged purifications");
  rep.check(drift <= run->c.drift_bound,
            "conserved-quantity drift per atom within bound");

  if (run->c.spec.mode == CalcMode::kOrderN) {
    // Accuracy of the O(N) forces on the final configuration against
    // exact diagonalization of the same Hamiltonian.
    const System& sys = run->c.system;
    const auto exact =
        make_calculator(run->c.model, sys, CalculatorSpec::exact());
    const ForceResult ref = exact->compute(sys);
    const ForceResult& got = run->driver->last_result();
    double err = 0.0;
    for (std::size_t i = 0; i < sys.size(); ++i) {
      const Vec3 d = got.forces[i] - ref.forces[i];
      err = std::max({err, std::fabs(d.x), std::fabs(d.y), std::fabs(d.z)});
    }
    rep.metric("force_err_eV_A", err, "eV/A");
    rep.check(err <= run->c.force_err_bound,
              "O(N) force error against exact within bound");
  }
}

void run_sweep(const e2e::Args& a, Report& rep) {
  std::unique_ptr<e2e::MdRun> probe = timed_setup(a, rep);
  if (a.warmup) {
    probe->driver->step();
    return;
  }
  probe.reset();

  const std::vector<svc::JobSpec> jobs = e2e::make_sweep_jobs(a.seed);
  std::vector<double> job_ms_per_step, job_s;
  long steps = 0;
  double sweep_s = 0.0;
  int rounds = 0;
  WallTimer wall;
  // Whole rounds only: another round starts while it still fits in the
  // measured window.
  for (double last = 0.0; rounds == 0 || wall.seconds() + last <= a.seconds;
       ++rounds) {
    const std::string dir = a.out + "/sweep-" + std::to_string(a.seed) + "-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(rounds);
    const e2e::SweepRound r = e2e::run_sweep_round(jobs, dir);
    long incomplete = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const double s = r.pass1[i].wall_seconds + r.pass2[i].wall_seconds;
      const long k = r.pass1[i].steps_run + r.pass2[i].steps_run;
      job_s.push_back(s);
      if (k > 0) job_ms_per_step.push_back(1e3 * s / static_cast<double>(k));
      steps += k;
      const bool done = r.pass2[i].status == svc::JobStatus::kCompleted &&
                        r.pass2[i].steps_done == jobs[i].steps &&
                        std::isfinite(r.pass2[i].final_energy);
      if (!done) ++incomplete;
    }
    rep.operations(static_cast<long>(jobs.size()), incomplete);
    rep.check(incomplete == 0, std::to_string(incomplete) +
                                   " jobs did not complete after resume");
    rep.check(r.bad_trajectories == 0,
              std::to_string(r.bad_trajectories) +
                  " trajectories did not read back with one frame per step");
    last = r.pass1_s + r.pass2_s;
    sweep_s += last;
  }

  // A sweep "step" is a job's wall time over its steps: the per-step cost
  // a sweep user pays, job setup and checkpoint/trajectory I/O included.
  rep.metric("step_ms_p50", e2e::percentile(job_ms_per_step, 50.0), "ms");
  rep.metric("step_ms_p90", e2e::percentile(job_ms_per_step, 90.0), "ms");
  rep.metric("steps_per_s", static_cast<double>(steps) / sweep_s, "1/s");
  rep.metric("peak_rss_mb", e2e::peak_rss_mb(), "MB");
  rep.metric("job_s_p50", e2e::percentile(job_s, 50.0), "s");
  rep.metric("steps", static_cast<double>(steps), "count");
  rep.metric("rounds", rounds, "count");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const e2e::Args a = e2e::parse_args(argc, argv);
    io::set_log_level(io::LogLevel::kWarn);
    Report rep(a.workload);
    if (e2e::is_md_workload(a.workload)) {
      run_md(a, rep);
    } else {
      run_sweep(a, rep);
    }
    return a.warmup ? 0 : rep.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tbmd_e2e: %s\n", e.what());
    return 2;
  }
}
