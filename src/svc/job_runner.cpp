#include "src/svc/job_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "src/core/health_spec.hpp"
#include "src/io/binary_trajectory.hpp"
#include "src/io/logger.hpp"
#include "src/md/md_driver.hpp"
#include "src/md/velocities.hpp"
#include "src/svc/checkpoint.hpp"
#include "src/util/error.hpp"
#include "src/util/fault_point.hpp"
#include "src/util/parallel.hpp"
#include "src/util/timer.hpp"

namespace tbmd::svc {

namespace {

/// Claim one MD step from the shared budget (null = unlimited).
bool take_step(std::atomic<long>* budget) {
  if (budget == nullptr) return true;
  long current = budget->load(std::memory_order_relaxed);
  while (current > 0) {
    if (budget->compare_exchange_weak(current, current - 1)) return true;
  }
  return false;
}

JobResult run_job(const JobSpec& spec, const SweepOptions& options,
                  std::atomic<long>* budget) {
  namespace fs = std::filesystem;
  WallTimer timer;
  JobResult res;
  res.name = spec.name;
  const std::string ckpt_path =
      (fs::path(options.output_dir) / (spec.name + ".ckpt")).string();
  const std::string traj_path =
      (fs::path(options.output_dir) / (spec.name + ".tbt")).string();

  System system;
  long start_step = 0;
  double thermo_target = 0.0;
  std::vector<double> thermo_state;

  if (options.resume && fs::exists(ckpt_path)) {
    bool used_prev = false;
    Checkpoint ck = read_checkpoint_with_fallback(ckpt_path, &used_prev);
    res.resumed_from_prev = used_prev;
    TBMD_REQUIRE(ck.total_steps == spec.steps,
                 "job '" + spec.name + "': checkpoint expects " +
                     std::to_string(ck.total_steps) +
                     " total steps but the spec asks for " +
                     std::to_string(spec.steps));
    system = std::move(ck.system);
    start_step = ck.step;
    thermo_target = ck.thermostat_target;
    thermo_state = std::move(ck.thermostat_state);
    res.resumed = true;
  } else {
    system = spec.build_system();
    md::maxwell_boltzmann_velocities(system, spec.temperature, spec.seed);
  }

  const std::unique_ptr<Calculator> calc = spec.make_calculator(system);
  md::MdOptions mdopt;
  mdopt.dt = spec.dt;
  mdopt.thermostat = spec.thermostat;
  md::MdDriver driver(system, *calc, mdopt);
  if (res.resumed) driver.restore(start_step, thermo_target, thermo_state);

  io::BinaryTrajectoryOptions topt;
  topt.velocities = spec.traj_velocities;
  topt.lossless = spec.traj_lossless;
  std::unique_ptr<io::BinaryTrajectoryWriter> traj;
  if (spec.sample_every > 0) {
    if (res.resumed && fs::exists(traj_path)) {
      traj = std::make_unique<io::BinaryTrajectoryWriter>(
          io::BinaryTrajectoryWriter::resume(traj_path, system, start_step,
                                             topt));
    } else {
      traj = std::make_unique<io::BinaryTrajectoryWriter>(traj_path, system,
                                                          topt);
      if (!res.resumed) traj->add_frame(system, 0);
    }
  }

  const auto save = [&](long step) {
    if (traj) traj->flush();
    Checkpoint ck;
    ck.step = step;
    ck.total_steps = spec.steps;
    ck.system = system;
    if (const md::Thermostat* t = driver.thermostat()) {
      ck.thermostat_target = t->target();
      ck.thermostat_state = t->state();
    }
    write_checkpoint(ckpt_path, ck);
  };

  long step = start_step;
  while (step < spec.steps) {
    if (!take_step(budget)) {
      save(step);
      res.status = JobStatus::kPreempted;
      break;
    }
    // The ramp target is a pure function of the step index, so a resumed
    // run applies the same schedule an uninterrupted one would.
    if (md::Thermostat* t = driver.thermostat()) {
      t->set_target(spec.target_at(step));
    }
    WallTimer step_timer;
    if (fault::fire(fault::kSvcStall)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (fault::fire(fault::kSvcWorkerThrow)) {
      throw Error("job '" + spec.name + "': injected worker failure");
    }
    driver.step();
    step = driver.step_count();
    res.steps_run += 1;
    if (traj && step % spec.sample_every == 0) traj->add_frame(system, step);
    const bool final_step = step >= spec.steps;
    if (final_step || (spec.checkpoint_every > 0 &&
                       step % spec.checkpoint_every == 0)) {
      save(step);
    }
    if (!final_step && options.step_watchdog_s > 0.0 &&
        step_timer.seconds() > options.step_watchdog_s) {
      // A step blew its wall-clock budget: park the job at a fresh
      // checkpoint instead of letting it hog the worker.  (An in-flight
      // step cannot be interrupted from its own thread, so the watchdog
      // trips as soon as the offending step returns.)
      save(step);
      res.status = JobStatus::kPreempted;
      res.failure_class = "watchdog";
      break;
    }
  }

  res.steps_done = step;
  res.final_energy = driver.total_energy();
  res.final_temperature = system.temperature();
  res.wall_seconds = timer.seconds();
  return res;
}

std::string csv_safe(std::string text) {
  for (char& c : text) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return text;
}

}  // namespace

std::string_view job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kCompleted:
      return "completed";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kPreempted:
      return "preempted";
  }
  return "unknown";
}

JobRunner::JobRunner(std::vector<JobSpec> jobs, SweepOptions options)
    : jobs_(std::move(jobs)), options_(std::move(options)) {
  TBMD_REQUIRE(!jobs_.empty(), "JobRunner: no jobs");
}

std::vector<JobResult> JobRunner::run() {
  namespace fs = std::filesystem;
  fs::create_directories(options_.output_dir);

  // Arm requested fault plans up front (the registry is process-global, so
  // one plan covers every worker).  The runner never disarms: tests and
  // chaos drivers own the registry's lifetime via fault::disarm_all().
  for (const JobSpec& spec : jobs_) {
    if (!spec.faults.empty()) fault::arm_from_spec(spec.faults);
  }

  std::vector<JobResult> results(jobs_.size());
  std::atomic<std::size_t> next{0};
  std::atomic<long> budget{options_.step_budget};
  std::atomic<long>* budget_ptr =
      options_.step_budget >= 0 ? &budget : nullptr;
  std::mutex log_mutex;

  const auto worker = [&]() {
    // Ambient team size captured once per worker: omp_set_num_threads is
    // a per-calling-thread ICV, so each worker thread pins its own jobs
    // without racing the others.
    const int ambient_threads =
        options_.threads > 0 ? options_.threads : par::max_threads();
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs_.size()) return;
      const JobSpec& spec = jobs_[i];
      JobResult& res = results[i];
      par::set_num_threads(spec.threads > 0 ? spec.threads : ambient_threads);
      // Bounded per-job retry: attempt 1 runs with the caller's options;
      // retried attempts force resume so they continue from the last good
      // checkpoint instead of redoing completed work.
      SweepOptions opts = options_;
      int attempt = 0;
      for (;;) {
        ++attempt;
        try {
          res = run_job(spec, opts, budget_ptr);
          res.attempts = attempt;
          break;
        } catch (const std::exception& e) {
          res = JobResult{};
          res.name = spec.name;
          res.status = JobStatus::kFailed;
          res.error = e.what();
          res.attempts = attempt;
          const auto* numerics = dynamic_cast<const NumericsError*>(&e);
          res.failure_class =
              numerics != nullptr
                  ? failure_class_name(numerics->failure_class())
                  : "error";
        }
        if (attempt > options_.max_job_retries) break;
        const double backoff =
            std::min(options_.retry_backoff_s *
                         std::pow(2.0, static_cast<double>(attempt - 1)),
                     options_.retry_backoff_max_s);
        {
          const std::lock_guard<std::mutex> lock(log_mutex);
          io::log_warn("job '", res.name, "': attempt ", attempt,
                       " failed (", res.failure_class, ": ", res.error,
                       "); retrying in ", backoff, " s");
        }
        if (backoff > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff));
        }
        opts.resume = true;
      }
      if (options_.verbose) {
        const std::lock_guard<std::mutex> lock(log_mutex);
        io::log_info("job '", res.name, "': ", job_status_name(res.status),
                     " at step ", res.steps_done, "/", spec.steps, " (",
                     res.steps_run, " steps this run, ", res.attempts,
                     " attempt(s), ", res.wall_seconds, " s)",
                     res.error.empty() ? "" : " -- ", res.error);
      }
    }
  };

  const int workers = std::max(
      1, std::min(options_.workers, static_cast<int>(jobs_.size())));
  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  write_summary((fs::path(options_.output_dir) / "sweep_summary.csv").string(),
                results);
  return results;
}

void JobRunner::write_summary(const std::string& path,
                              const std::vector<JobResult>& results) {
  std::ofstream os(path, std::ios::trunc);
  TBMD_REQUIRE(os.good(), "write_summary: cannot open '" + path + "'");
  os << "name,status,resumed,steps_done,steps_run,final_energy_eV,"
        "final_temperature_K,wall_s,failure_class,attempts,error\n";
  os.precision(17);
  for (const JobResult& r : results) {
    os << csv_safe(r.name) << ',' << job_status_name(r.status) << ','
       << (r.resumed ? 1 : 0) << ',' << r.steps_done << ',' << r.steps_run
       << ',' << r.final_energy << ',' << r.final_temperature << ','
       << r.wall_seconds << ',' << csv_safe(r.failure_class) << ','
       << r.attempts << ',' << csv_safe(r.error) << '\n';
  }
  TBMD_REQUIRE(os.good(), "write_summary: write failed for '" + path + "'");
}

}  // namespace tbmd::svc
