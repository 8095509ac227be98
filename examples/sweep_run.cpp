/// \file sweep_run.cpp
/// \brief Batched-trajectory sweep runner with checkpoint/restart.
///
/// Usage:  ./sweep_run sweep.cfg [--workers N] [--output DIR]
///                     [--no-resume] [--step-budget N] [--threads N]
///                     [--precision fp64|mixed] [--retries N]
///                     [--watchdog S] [--faults SPEC] [--quiet]
///
/// Example sweep file:
/// \code
///   jobs       = melt_300.cfg melt_600.cfg melt_900.cfg
///   output_dir = melt_sweep
///   workers    = 2
///   replicas   = 1
/// \endcode
///
/// Each job file is a JobSpec config (see src/svc/job_spec.hpp).  Killing
/// the process (or bounding it with --step-budget) leaves checkpoints in
/// the output directory; re-running the same command resumes every
/// unfinished job bit-identically.
///
/// Exit status: 0 = all jobs completed, 2 = budget ran out (re-run to
/// continue), 1 = at least one job failed.
///
/// Chaos knobs: --faults (or the TBMD_FAULTS env var) arms the
/// deterministic fault-injection registry (see src/util/fault_point.hpp
/// for the site grammar); --retries and --watchdog map to the sweep
/// file's max_job_retries / step_watchdog keys.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/io/logger.hpp"
#include "src/svc/job_runner.hpp"
#include "src/util/error.hpp"
#include "src/util/fault_point.hpp"
#include "src/util/parallel.hpp"
#include "src/util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace tbmd;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s sweep.cfg [--workers N] [--output DIR] "
                 "[--no-resume] [--step-budget N] [--threads N] "
                 "[--precision fp64|mixed] [--retries N] [--watchdog S] "
                 "[--faults SPEC] [--quiet]\n",
                 argv[0]);
    return 2;
  }
  try {
    svc::Sweep sweep = svc::load_sweep(argv[1]);
    svc::SweepOptions opt = sweep.options;

    // Ambient team size for all jobs without a per-job `threads` key:
    // TBMD_THREADS env var, overridden by --threads below.
    if (const char* env = std::getenv("TBMD_THREADS")) {
      opt.threads = parse_int(env, "TBMD_THREADS");
    }
    // Chaos plan from the environment (overridden/extended by --faults).
    if (const char* env = std::getenv("TBMD_FAULTS")) {
      fault::arm_from_spec(env);
    }

    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("sweep_run: " + flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--workers") {
        opt.workers = parse_int(value(), flag);
      } else if (flag == "--output") {
        opt.output_dir = value();
      } else if (flag == "--no-resume") {
        opt.resume = false;
      } else if (flag == "--step-budget") {
        opt.step_budget = parse_long(value(), flag);
      } else if (flag == "--threads") {
        opt.threads = parse_int(value(), flag);
      } else if (flag == "--precision") {
        // Override the purification precision mode for every TB job in
        // the sweep (a results-changing knob, unlike --threads: it lands
        // on each job's NumericsSpec).
        const PrecisionMode mode =
            NumericsSpec::precision_by_name(to_lower(value()));
        for (svc::JobSpec& job : sweep.jobs) {
          if (!job.classical()) job.calc.numerics.precision = mode;
        }
      } else if (flag == "--retries") {
        opt.max_job_retries = parse_int(value(), flag);
      } else if (flag == "--watchdog") {
        opt.step_watchdog_s = parse_double(value(), flag);
      } else if (flag == "--faults") {
        fault::arm_from_spec(value());
      } else if (flag == "--quiet") {
        opt.verbose = false;
      } else {
        throw Error("sweep_run: unknown flag '" + flag + "'");
      }
    }

    const std::size_t jobs = sweep.jobs.size();
    svc::JobRunner runner(std::move(sweep.jobs), opt);  // range-checks opt
    io::log_info("sweep: ", jobs, " job(s), ", opt.workers, " worker(s), ",
                 opt.threads > 0 ? opt.threads : par::max_threads(),
                 " thread(s)/job, output '", opt.output_dir, "'");
    const std::vector<svc::JobResult> results = runner.run();

    int completed = 0;
    int failed = 0;
    int preempted = 0;
    for (const svc::JobResult& r : results) {
      switch (r.status) {
        case svc::JobStatus::kCompleted:
          ++completed;
          break;
        case svc::JobStatus::kFailed:
          ++failed;
          break;
        case svc::JobStatus::kPreempted:
          ++preempted;
          break;
      }
    }
    io::log_info("sweep: ", completed, " completed, ", preempted,
                 " preempted, ", failed, " failed; summary in ",
                 opt.output_dir, "/sweep_summary.csv");
    if (failed > 0) return 1;
    return preempted > 0 ? 2 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
