// End-to-end chaos tests for the job runner: deterministic fault injection
// drives torn-checkpoint kills, pre-rename crashes, worker throws, and
// watchdog stalls through the full sweep machinery, and every recovery
// (.prev fallback, bounded retry, resume-after-preemption) must land
// bit-identically on the uninterrupted trajectory.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/structures/builders.hpp"
#include "src/svc/checkpoint.hpp"
#include "src/svc/job_runner.hpp"
#include "src/svc/job_spec.hpp"
#include "src/util/error.hpp"
#include "src/util/fault_point.hpp"

namespace tbmd::svc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tbmd_chaos_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

/// The fault registry is process-global: bracket every test with a full
/// disarm so a failing assertion cannot leak an armed site into the next.
struct FaultGuard {
  FaultGuard() { fault::disarm_all(); }
  ~FaultGuard() { fault::disarm_all(); }
};

/// Small LJ argon job: fast enough to re-run several recovery variants.
JobSpec lj_job(const std::string& name, long steps, long checkpoint_every) {
  JobSpec s;
  s.name = name;
  s.structure = "fcc";
  s.element = Element::Ar;
  s.lattice = 5.26;
  s.cells = {2, 2, 2};
  s.model = "lj";
  s.lj_cutoff = 4.8;
  s.calc.skin = 0.4;
  s.dt = 2.0;
  s.steps = steps;
  s.temperature = 60.0;
  s.seed = 9;
  s.sample_every = 0;
  s.checkpoint_every = checkpoint_every;
  return s;
}

std::vector<JobResult> run_sweep(const std::vector<JobSpec>& jobs,
                                 const std::string& dir, int retries = 0,
                                 double watchdog_s = 0.0) {
  SweepOptions opt;
  opt.workers = 1;
  opt.output_dir = dir;
  opt.resume = true;
  opt.verbose = false;
  opt.max_job_retries = retries;
  opt.retry_backoff_s = 0.001;
  opt.step_watchdog_s = watchdog_s;
  return JobRunner(jobs, opt).run();
}

/// EXPECT bit-identical checkpoints: step, positions, velocities, and
/// freshly recomputed energy/forces must match to the last ulp.
void expect_bit_identical(const JobSpec& spec, const std::string& ckpt_a,
                          const std::string& ckpt_b) {
  const Checkpoint a = read_checkpoint(ckpt_a);
  const Checkpoint b = read_checkpoint(ckpt_b);
  ASSERT_EQ(a.step, b.step);
  ASSERT_EQ(a.system.size(), b.system.size());
  for (std::size_t i = 0; i < a.system.size(); ++i) {
    EXPECT_EQ(a.system.positions()[i], b.system.positions()[i]) << "atom " << i;
    EXPECT_EQ(a.system.velocities()[i], b.system.velocities()[i])
        << "atom " << i;
  }
  const auto calc_a = spec.make_calculator(a.system);
  const auto calc_b = spec.make_calculator(b.system);
  const ForceResult fa = calc_a->compute(a.system);
  const ForceResult fb = calc_b->compute(b.system);
  EXPECT_EQ(fa.energy, fb.energy);
  for (std::size_t i = 0; i < fa.forces.size(); ++i) {
    EXPECT_EQ(fa.forces[i], fb.forces[i]) << "atom " << i;
  }
}

/// Run `spec` cleanly in its own directory and return the final checkpoint
/// path (the bit-identity reference for the chaos variants).
std::string reference_checkpoint(const JobSpec& spec, const ScratchDir& dir) {
  const std::vector<JobResult> res = run_sweep({spec}, dir.path());
  EXPECT_EQ(res[0].status, JobStatus::kCompleted);
  return dir.file(spec.name + ".ckpt");
}

TEST(Chaos, TornCheckpointKillResumesFromPrev) {
  const FaultGuard guard;
  const JobSpec spec = lj_job("torn", 6, 2);
  ScratchDir ref_dir("torn_ref");
  const std::string ref_ckpt = reference_checkpoint(spec, ref_dir);

  ScratchDir dir("torn");
  // The second checkpoint write (step 4) tears: a partial payload lands
  // under a stale CRC and the writer throws as an injected kill.
  fault::arm(fault::kCkptTornWrite, 2);
  {
    const std::vector<JobResult> res = run_sweep({spec}, dir.path());
    EXPECT_EQ(res[0].status, JobStatus::kFailed);
    EXPECT_EQ(res[0].failure_class, "error");
  }
  const std::string ckpt = dir.file("torn.ckpt");
  EXPECT_THROW((void)read_checkpoint(ckpt), Error);  // torn primary
  ASSERT_TRUE(fs::exists(ckpt + ".prev"));           // rotated step 2

  // Recovery: the resumed run must fall back to .prev and end up
  // bit-identical to the uninterrupted reference.
  fault::disarm_all();
  const std::vector<JobResult> res = run_sweep({spec}, dir.path());
  EXPECT_EQ(res[0].status, JobStatus::kCompleted);
  EXPECT_TRUE(res[0].resumed);
  EXPECT_TRUE(res[0].resumed_from_prev);
  EXPECT_EQ(res[0].steps_done, 6);
  expect_bit_identical(spec, ckpt, ref_ckpt);
}

TEST(Chaos, CrashBeforeRenameKeepsPrimaryCheckpoint) {
  const FaultGuard guard;
  const JobSpec spec = lj_job("crash", 6, 2);
  ScratchDir ref_dir("crash_ref");
  const std::string ref_ckpt = reference_checkpoint(spec, ref_dir);

  ScratchDir dir("crash");
  // The injected kill lands after the temp file is written but before the
  // rename: the step-2 checkpoint at the primary path stays intact.
  fault::arm(fault::kCkptCrashBeforeRename, 2);
  {
    const std::vector<JobResult> res = run_sweep({spec}, dir.path());
    EXPECT_EQ(res[0].status, JobStatus::kFailed);
  }
  const std::string ckpt = dir.file("crash.ckpt");
  EXPECT_EQ(read_checkpoint(ckpt).step, 2);

  fault::disarm_all();
  const std::vector<JobResult> res = run_sweep({spec}, dir.path());
  EXPECT_EQ(res[0].status, JobStatus::kCompleted);
  EXPECT_TRUE(res[0].resumed);
  EXPECT_FALSE(res[0].resumed_from_prev);
  expect_bit_identical(spec, ckpt, ref_ckpt);
}

TEST(Chaos, WorkerThrowIsRetriedToCompletion) {
  const FaultGuard guard;
  const JobSpec spec = lj_job("retry", 4, 0);
  ScratchDir ref_dir("retry_ref");
  const std::string ref_ckpt = reference_checkpoint(spec, ref_dir);

  ScratchDir dir("retry");
  // The first step of the first attempt throws before integrating, so the
  // retry starts from scratch and must reproduce the clean trajectory.
  fault::arm(fault::kSvcWorkerThrow, 1);
  const std::vector<JobResult> res =
      run_sweep({spec}, dir.path(), /*retries=*/1);
  EXPECT_EQ(res[0].status, JobStatus::kCompleted);
  EXPECT_EQ(res[0].attempts, 2);
  EXPECT_EQ(res[0].steps_done, 4);
  expect_bit_identical(spec, dir.file("retry.ckpt"), ref_ckpt);
}

TEST(Chaos, WorkerThrowWithoutRetriesFailsFast) {
  const FaultGuard guard;
  ScratchDir dir("nofret");
  const JobSpec spec = lj_job("nofret", 4, 0);
  fault::arm(fault::kSvcWorkerThrow, 1);
  const std::vector<JobResult> res = run_sweep({spec}, dir.path());
  EXPECT_EQ(res[0].status, JobStatus::kFailed);
  EXPECT_EQ(res[0].attempts, 1);
  EXPECT_EQ(res[0].failure_class, "error");
  EXPECT_NE(res[0].error.find("injected worker failure"), std::string::npos);
}

TEST(Chaos, WatchdogPreemptsStalledStepThenResumes) {
  const FaultGuard guard;
  const JobSpec spec = lj_job("stall", 6, 0);
  ScratchDir ref_dir("stall_ref");
  const std::string ref_ckpt = reference_checkpoint(spec, ref_dir);

  ScratchDir dir("stall");
  // The first step stalls 100 ms against a 50 ms watchdog: the job parks
  // at a fresh step-1 checkpoint instead of hogging its worker.
  fault::arm(fault::kSvcStall, 1);
  {
    const std::vector<JobResult> res =
        run_sweep({spec}, dir.path(), /*retries=*/0, /*watchdog_s=*/0.05);
    EXPECT_EQ(res[0].status, JobStatus::kPreempted);
    EXPECT_EQ(res[0].failure_class, "watchdog");
    EXPECT_EQ(res[0].steps_done, 1);
  }
  const std::string ckpt = dir.file("stall.ckpt");
  EXPECT_EQ(read_checkpoint(ckpt).step, 1);

  // The resume leg runs without a watchdog: on a loaded host an ordinary
  // step can overrun 50 ms, and the preemption itself is proven above.
  fault::disarm_all();
  const std::vector<JobResult> res = run_sweep({spec}, dir.path());
  EXPECT_EQ(res[0].status, JobStatus::kCompleted);
  EXPECT_TRUE(res[0].resumed);
  expect_bit_identical(spec, ckpt, ref_ckpt);
}

TEST(Chaos, SpecFaultsFieldArmsRegistryThroughRunner) {
  const FaultGuard guard;
  ScratchDir dir("specfaults");
  JobSpec spec = lj_job("specfaults", 4, 0);
  spec.faults = "svc.worker_throw@1";
  const std::vector<JobResult> res = run_sweep({spec}, dir.path());
  EXPECT_EQ(res[0].status, JobStatus::kFailed);
  EXPECT_NE(res[0].error.find("injected worker failure"), std::string::npos);
  EXPECT_EQ(fault::fired(fault::kSvcWorkerThrow), 1);
}

TEST(Chaos, SummaryCsvCarriesFailureClassAndAttempts) {
  const FaultGuard guard;
  ScratchDir dir("csv");
  fault::arm(fault::kSvcWorkerThrow, 1);
  const std::vector<JobResult> res =
      run_sweep({lj_job("csvjob", 4, 0)}, dir.path(), /*retries=*/1);
  EXPECT_EQ(res[0].status, JobStatus::kCompleted);
  EXPECT_EQ(res[0].attempts, 2);

  std::ifstream is(dir.file("sweep_summary.csv"));
  ASSERT_TRUE(is.good());
  std::string header;
  std::string row;
  std::getline(is, header);
  std::getline(is, row);
  EXPECT_EQ(header,
            "name,status,resumed,steps_done,steps_run,final_energy_eV,"
            "final_temperature_K,wall_s,failure_class,attempts,error");
  EXPECT_NE(row.find("csvjob,completed"), std::string::npos);
  // The attempts column records that the job-level retry fired.
  EXPECT_NE(row.find(",2,"), std::string::npos);
}

}  // namespace
}  // namespace tbmd::svc
