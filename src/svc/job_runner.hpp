#pragma once

/// \file job_runner.hpp
/// \brief Concurrent batched-trajectory runner with checkpoint/restart.
///
/// The runner pulls jobs from a shared queue onto M worker threads.  Each
/// worker runs one trajectory at a time, and every attempt at a job builds
/// its own calculator from the spec (after the system is built or
/// restored) and drops it when the attempt ends.  A job's result therefore
/// depends only on its spec and checkpoint, never on which worker ran it,
/// what ran before it, or a failed earlier attempt:
///
///   * fresh jobs build the structure, seed Maxwell-Boltzmann velocities
///     from the spec seed, and integrate from step 0;
///   * when resume is enabled and `<name>.ckpt` exists, the System,
///     thermostat state and step counter are restored and the binary
///     trajectory is reopened with frames past the checkpoint truncated --
///     the continued run is bit-identical to an uninterrupted one (tested
///     at %.17g on energies and every force component);
///   * a throwing job is recorded as failed with its message and failure
///     class and the worker moves to the next job -- one bad trajectory
///     cannot take down a sweep.  With `max_job_retries` > 0 a failed job
///     is first retried (capped exponential backoff, resume forced on) up
///     to that many extra attempts, which composes with the calculator's
///     own recovery ladder: the in-step ladder exhausts first, then the
///     job-level retry resumes from the last good checkpoint;
///   * a positive `step_watchdog_s` bounds the wall-clock of a single MD
///     step: a step that exceeds it checkpoints and reports kPreempted
///     with failure class "watchdog" instead of hogging the worker.
///
/// Preemption: a non-negative `step_budget` bounds the MD steps the whole
/// sweep may take in this invocation.  When the budget runs out every job
/// checkpoints and reports kPreempted; re-running the same sweep command
/// picks all of them up from their checkpoints.  This is how the CI
/// kill-and-resume job and the tests exercise restart determinism.

#include <string>
#include <vector>

#include "src/svc/job_spec.hpp"

namespace tbmd::svc {

/// Runner-level options.  load_sweep fills them from a sweep file; a
/// command line may then override them.
struct SweepOptions {
  int workers = 1;
  /// Directory for checkpoints, trajectories, and the summary CSV.
  std::string output_dir = "sweep_out";
  /// Pick up existing checkpoints instead of restarting from scratch.
  bool resume = true;
  /// Total MD steps this invocation may execute across all jobs
  /// (< 0 = unlimited).  Used to force mid-sweep preemption.
  long step_budget = -1;
  /// OpenMP threads each worker pins for jobs without their own `threads`
  /// key (0 = the process-wide default).  Set explicitly rather than via
  /// omp_set_num_threads() in the caller: that call only changes the
  /// calling thread's ICV and would not reach the runner's std::thread
  /// workers.
  int threads = 0;
  /// Log per-job progress lines.
  bool verbose = true;
  /// Extra attempts for a failed job (0 = fail fast).  Retried attempts
  /// force resume, so they continue from the last good checkpoint.
  int max_job_retries = 0;
  /// Base of the capped exponential backoff between retry attempts (s).
  double retry_backoff_s = 0.05;
  /// Backoff cap (s).
  double retry_backoff_max_s = 2.0;
  /// Wall-clock budget for one MD step (s); a step exceeding it preempts
  /// the job to its (just-written) checkpoint.  0 = no watchdog.
  double step_watchdog_s = 0.0;

  /// Throw tbmd::Error when an option is out of range (workers < 1,
  /// negative threads, retries, backoff or watchdog).  load_sweep and the
  /// JobRunner constructor both run it, so a sweep file and a command line
  /// are held to the same limits.
  void validate() const;
};

/// A sweep file: runner options plus one JobSpec per job.
///
/// Sweep config keys: `jobs` (whitespace-separated spec paths, resolved
/// relative to the sweep file), `output_dir`, `workers`, `resume`,
/// `replicas` (expands every job K-fold as `<name>-r<k>` with seed + k),
/// plus the robustness knobs `max_job_retries`, `retry_backoff` (s) and
/// `step_watchdog` (s).
struct Sweep {
  std::vector<JobSpec> jobs;
  SweepOptions options;
};

[[nodiscard]] Sweep load_sweep(const std::string& path);

enum class JobStatus {
  kCompleted,  ///< ran (or had already run) to its final step
  kFailed,     ///< threw; see JobResult::error
  kPreempted,  ///< stopped early by the step budget, checkpoint on disk
};

/// Outcome of one job in one runner invocation.
struct JobResult {
  std::string name;
  JobStatus status = JobStatus::kCompleted;
  std::string error;
  /// Failure classification for the summary CSV: a
  /// tbmd::failure_class_name() when the job died on a guardrail
  /// violation, "watchdog" on a step-watchdog preemption, "error" on any
  /// other exception, "" on success.
  std::string failure_class;
  /// Attempts consumed (1 = first try succeeded; > 1 means job-level
  /// retries fired).
  int attempts = 1;
  /// True when the job started from an existing checkpoint.
  bool resumed = false;
  /// True when the primary checkpoint was corrupt and the job resumed
  /// from the rotated `.ckpt.prev` instead.
  bool resumed_from_prev = false;
  /// Trajectory position (steps) when the job exited.
  long steps_done = 0;
  /// Steps actually integrated in this invocation.
  long steps_run = 0;
  /// Total (kinetic + potential) energy at exit (eV).
  double final_energy = 0.0;
  /// Instantaneous temperature at exit (K).
  double final_temperature = 0.0;
  double wall_seconds = 0.0;
};

[[nodiscard]] std::string_view job_status_name(JobStatus status);

/// Runs a batch of jobs; see file docs.
class JobRunner {
 public:
  JobRunner(std::vector<JobSpec> jobs, SweepOptions options);

  /// Run (or resume) every job; blocks until the queue drains.  Writes
  /// `sweep_summary.csv` into the output directory and returns one result
  /// per job, in job order.
  std::vector<JobResult> run();

  /// Write the summary CSV for `results` to `path`.
  static void write_summary(const std::string& path,
                            const std::vector<JobResult>& results);

 private:
  std::vector<JobSpec> jobs_;
  SweepOptions options_;
};

}  // namespace tbmd::svc
