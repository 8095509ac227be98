// Tests for the service layer: checkpoint round-trips, kill-and-resume
// bit-identity (NVE and NVT, classical and both tight-binding engines),
// binary trajectory encode/decode/resume, job specs, and the job runner's
// fault isolation and preemption behavior.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/io/binary_trajectory.hpp"
#include "src/io/xyz.hpp"
#include "src/md/velocities.hpp"
#include "src/structures/builders.hpp"
#include "src/svc/checkpoint.hpp"
#include "src/svc/job_runner.hpp"
#include "src/svc/job_spec.hpp"
#include "src/util/error.hpp"

namespace tbmd::svc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("tbmd_svc_" + tag + "_" + std::to_string(::getpid())))
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

/// Small LJ argon job: fast enough for dozens of resume permutations.
JobSpec lj_job(const std::string& name, long steps,
               md::ThermostatSpec thermostat = {}) {
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
  s.thermostat = thermostat;
  s.sample_every = 5;
  s.checkpoint_every = 0;
  return s;
}

/// Tiny carbon diamond cell for the tight-binding engines.
JobSpec tb_job(const std::string& name, CalcMode mode, long steps) {
  JobSpec s;
  s.name = name;
  s.structure = "diamond";
  s.element = Element::C;
  s.cells = {2, 2, 2};
  s.calc.mode = mode;
  s.dt = 1.0;
  s.steps = steps;
  s.temperature = 300.0;
  s.seed = 4;
  s.sample_every = 0;
  return s;
}

std::vector<JobResult> run_sweep(const std::vector<JobSpec>& jobs,
                                 const std::string& dir, long budget = -1,
                                 bool resume = true, int workers = 1) {
  SweepOptions opt;
  opt.workers = workers;
  opt.output_dir = dir;
  opt.resume = resume;
  opt.step_budget = budget;
  opt.verbose = false;
  return JobRunner(jobs, opt).run();
}

/// EXPECT bit-identical state: positions, velocities, and freshly
/// recomputed energy/forces must match to the last ulp.
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
  ASSERT_EQ(a.thermostat_state.size(), b.thermostat_state.size());
  for (std::size_t k = 0; k < a.thermostat_state.size(); ++k) {
    EXPECT_EQ(a.thermostat_state[k], b.thermostat_state[k]);
  }

  const auto calc_a = spec.make_calculator(a.system);
  const auto calc_b = spec.make_calculator(b.system);
  const ForceResult fa = calc_a->compute(a.system);
  const ForceResult fb = calc_b->compute(b.system);
  EXPECT_EQ(fa.energy, fb.energy);
  ASSERT_EQ(fa.forces.size(), fb.forces.size());
  for (std::size_t i = 0; i < fa.forces.size(); ++i) {
    EXPECT_EQ(fa.forces[i].x, fb.forces[i].x) << "atom " << i;
    EXPECT_EQ(fa.forces[i].y, fb.forces[i].y) << "atom " << i;
    EXPECT_EQ(fa.forces[i].z, fb.forces[i].z) << "atom " << i;
  }
}

/// Run `spec` to completion twice -- once uninterrupted, once killed by a
/// step budget and resumed -- and require bit-identical final state.
void check_kill_and_resume(const JobSpec& spec, long kill_after,
                           const std::string& tag) {
  ScratchDir base("base_" + tag);
  ScratchDir killed("killed_" + tag);

  const auto ref = run_sweep({spec}, base.path());
  ASSERT_EQ(ref[0].status, JobStatus::kCompleted);
  EXPECT_EQ(ref[0].steps_done, spec.steps);

  const auto first = run_sweep({spec}, killed.path(), kill_after);
  ASSERT_EQ(first[0].status, JobStatus::kPreempted);
  EXPECT_EQ(first[0].steps_done, kill_after);

  const auto second = run_sweep({spec}, killed.path());
  ASSERT_EQ(second[0].status, JobStatus::kCompleted);
  EXPECT_TRUE(second[0].resumed);
  EXPECT_EQ(second[0].steps_run, spec.steps - kill_after);

  EXPECT_EQ(ref[0].final_energy, second[0].final_energy);
  EXPECT_EQ(ref[0].final_temperature, second[0].final_temperature);
  expect_bit_identical(spec, base.file(spec.name + ".ckpt"),
                       killed.file(spec.name + ".ckpt"));
}

TEST(Checkpoint, RoundTripsEveryField) {
  ScratchDir dir("ckpt");
  Checkpoint ck;
  ck.step = 17;
  ck.total_steps = 40;
  ck.system = structures::fcc(Element::Ar, 5.26, 1, 1, 2);
  md::maxwell_boltzmann_velocities(ck.system, 80.0, 3);
  ck.system.set_frozen(1, true);
  ck.thermostat_target = 123.5;
  ck.thermostat_state = {0.25, -1.75, 3e-17, 12.0};

  const std::string path = dir.file("a.ckpt");
  write_checkpoint(path, ck);
  const Checkpoint back = read_checkpoint(path);

  EXPECT_EQ(back.step, 17);
  EXPECT_EQ(back.total_steps, 40);
  EXPECT_FALSE(back.complete());
  ASSERT_EQ(back.system.size(), ck.system.size());
  for (std::size_t i = 0; i < ck.system.size(); ++i) {
    EXPECT_EQ(back.system.positions()[i], ck.system.positions()[i]);
    EXPECT_EQ(back.system.velocities()[i], ck.system.velocities()[i]);
    EXPECT_EQ(back.system.species()[i], ck.system.species()[i]);
    EXPECT_EQ(back.system.frozen(i), ck.system.frozen(i));
  }
  EXPECT_TRUE(back.system.cell().periodic());
  EXPECT_EQ(back.thermostat_target, 123.5);
  EXPECT_EQ(back.thermostat_state, ck.thermostat_state);
}

TEST(Checkpoint, RejectsCorruptFiles) {
  ScratchDir dir("ckpt_bad");
  const std::string path = dir.file("bad.ckpt");
  std::ofstream(path) << "not a checkpoint";
  EXPECT_THROW((void)read_checkpoint(path), Error);
}

TEST(KillAndResume, BitIdenticalNveLennardJones) {
  check_kill_and_resume(lj_job("nve", 40), 17, "lj_nve");
}

TEST(KillAndResume, BitIdenticalBinnedNeighborList) {
  // 4x4x4 fcc = 256 atoms, above the brute-force threshold: exercises the
  // binned neighbor build, whose bin-order row traversal and rebuild-time
  // image shifts are exactly what the determinism sort/exact-shift fixes
  // canonicalize.
  JobSpec spec = lj_job("binned", 30);
  spec.cells = {4, 4, 4};
  check_kill_and_resume(spec, 13, "lj_binned");
}

TEST(KillAndResume, BitIdenticalNvtNoseHoover) {
  check_kill_and_resume(
      lj_job("nvt", 40, md::ThermostatSpec::nose_hoover(90.0, 50.0, 2)), 23,
      "lj_nvt");
}

TEST(KillAndResume, BitIdenticalNvtRampAcrossRestart) {
  JobSpec spec = lj_job("ramp", 40, md::ThermostatSpec::nose_hoover(60.0));
  spec.ramp_to = 120.0;
  spec.ramp_steps = 30;
  // Kill inside the ramp window: the resumed run must recompute the same
  // per-step targets from the step index alone.
  check_kill_and_resume(spec, 11, "lj_ramp");
}

TEST(KillAndResume, BitIdenticalExactTightBinding) {
  check_kill_and_resume(tb_job("tbx", CalcMode::kExact, 8), 3, "tb_exact");
}

TEST(KillAndResume, BitIdenticalOrderN) {
  check_kill_and_resume(tb_job("tbon", CalcMode::kOrderN, 8), 3, "tb_on");
}

TEST(KillAndResume, RepeatedPreemptionReachesSameState) {
  ScratchDir base("base_steps");
  ScratchDir chopped("chopped");
  const JobSpec spec =
      lj_job("chop", 30, md::ThermostatSpec::berendsen(70.0, 80.0));

  const auto ref = run_sweep({spec}, base.path());
  ASSERT_EQ(ref[0].status, JobStatus::kCompleted);

  // Advance in slices of 7 steps: 7, 14, 21, 28, done.
  long done = 0;
  for (int invocation = 0; invocation < 8 && done < spec.steps; ++invocation) {
    const auto r = run_sweep({spec}, chopped.path(), 7);
    done = r[0].steps_done;
  }
  EXPECT_EQ(done, spec.steps);
  expect_bit_identical(spec, base.file("chop.ckpt"), chopped.file("chop.ckpt"));
}

TEST(BinaryTrajectory, LosslessRoundTrip) {
  ScratchDir dir("traj_lossless");
  System s = structures::diamond(Element::C, 3.567, 1, 1, 2);
  md::maxwell_boltzmann_velocities(s, 300.0, 5);
  const std::string path = dir.file("t.tbt");
  io::BinaryTrajectoryOptions opt;
  opt.lossless = true;
  opt.velocities = true;
  std::vector<System> frames;
  {
    io::BinaryTrajectoryWriter w(path, s, opt);
    for (long f = 0; f < 4; ++f) {
      structures::perturb(s, 0.05, 100 + static_cast<unsigned>(f));
      w.add_frame(s, f * 10);
      frames.push_back(s);
    }
    EXPECT_EQ(w.frames_written(), 4u);
  }
  io::BinaryTrajectoryReader r(path);
  EXPECT_EQ(r.natoms(), s.size());
  EXPECT_TRUE(r.lossless());
  EXPECT_TRUE(r.has_velocities());
  io::TrajectoryFrame frame;
  for (std::size_t f = 0; f < 4; ++f) {
    ASSERT_TRUE(r.next(frame));
    EXPECT_EQ(frame.step, static_cast<long>(f) * 10);
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(frame.positions[i], frames[f].positions()[i]);
      EXPECT_EQ(frame.velocities[i], frames[f].velocities()[i]);
    }
  }
  EXPECT_FALSE(r.next(frame));
}

TEST(BinaryTrajectory, QuantizedStaysOnGrid) {
  ScratchDir dir("traj_quant");
  System s = structures::fcc(Element::Ar, 5.26, 1, 1, 1);
  const std::string path = dir.file("t.tbt");
  {
    io::BinaryTrajectoryWriter w(path, s);
    for (long f = 0; f < 3; ++f) {
      structures::perturb(s, 0.2, 7 + static_cast<unsigned>(f));
      w.add_frame(s, f);
    }
  }
  io::BinaryTrajectoryReader r(path);
  const double q = r.position_quantum();
  EXPECT_EQ(q, 1e-4);
  io::TrajectoryFrame frame;
  System check = structures::fcc(Element::Ar, 5.26, 1, 1, 1);
  for (long f = 0; f < 3; ++f) {
    ASSERT_TRUE(r.next(frame));
    structures::perturb(check, 0.2, 7 + static_cast<unsigned>(f));
    for (std::size_t i = 0; i < check.size(); ++i) {
      EXPECT_NEAR(frame.positions[i].x, check.positions()[i].x, 0.5 * q);
      EXPECT_NEAR(frame.positions[i].y, check.positions()[i].y, 0.5 * q);
      EXPECT_NEAR(frame.positions[i].z, check.positions()[i].z, 0.5 * q);
    }
  }
}

TEST(BinaryTrajectory, ResumeTruncatesAndMatchesUninterrupted) {
  ScratchDir dir("traj_resume");
  System s = structures::fcc(Element::Ar, 5.26, 1, 1, 2);
  std::vector<System> frames;
  for (long f = 0; f < 6; ++f) {
    structures::perturb(s, 0.1, 20 + static_cast<unsigned>(f));
    frames.push_back(s);
  }

  // Uninterrupted reference: all six frames in one writer.
  const std::string ref_path = dir.file("ref.tbt");
  {
    io::BinaryTrajectoryWriter w(ref_path, frames[0]);
    for (long f = 0; f < 6; ++f) {
      w.add_frame(frames[static_cast<std::size_t>(f)], f);
    }
  }

  // Interrupted: frames 0-4 written, then a resume keeps steps <= 2 (as
  // if a checkpoint at step 2 were being restarted) and re-appends 3-5.
  const std::string cut_path = dir.file("cut.tbt");
  {
    io::BinaryTrajectoryWriter w(cut_path, frames[0]);
    for (long f = 0; f < 5; ++f) {
      w.add_frame(frames[static_cast<std::size_t>(f)], f);
    }
  }
  {
    auto w = io::BinaryTrajectoryWriter::resume(cut_path, frames[2], 2);
    EXPECT_EQ(w.frames_written(), 3u);
    for (long f = 3; f < 6; ++f) {
      w.add_frame(frames[static_cast<std::size_t>(f)], f);
    }
  }

  // The resumed file must be byte-identical to the uninterrupted one.
  std::ifstream fa(ref_path, std::ios::binary);
  std::ifstream fb(cut_path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(BinaryTrajectory, XyzConverterMatchesFrames) {
  ScratchDir dir("traj_xyz");
  System s = structures::fcc(Element::Ar, 5.26, 1, 1, 1);
  const std::string tbt = dir.file("t.tbt");
  io::BinaryTrajectoryOptions opt;
  opt.lossless = true;
  {
    io::BinaryTrajectoryWriter w(tbt, s, opt);
    w.add_frame(s, 0);
    structures::perturb(s, 0.1, 3);
    w.add_frame(s, 25);
  }
  const std::string xyz = dir.file("t.xyz");
  EXPECT_EQ(io::trajectory_to_xyz(tbt, xyz), 2u);
  const System last = io::read_xyz_file(xyz);  // reads the... first frame
  ASSERT_EQ(last.size(), s.size());
}

TEST(JobSpec, ParsesStrictConfigs) {
  const io::Config cfg = io::Config::parse_string(
      "name = demo\nstructure = fcc\nelement = Ar\nmodel = lj\n"
      "steps = 12\ndt = 2.0\ntemperature = 80\nthermostat = nose-hoover\n"
      "thermostat_tau = 60\nramp_to = 160\nramp_steps = 8\nthreads = 3\n");
  const JobSpec s = JobSpec::from_config(cfg);
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.steps, 12);
  EXPECT_EQ(s.threads, 3);
  EXPECT_TRUE(s.classical());
  EXPECT_EQ(s.thermostat.kind, md::ThermostatKind::kNoseHoover);
  EXPECT_EQ(s.target_at(0), 90.0);   // 80 + (1/8) * 80
  EXPECT_EQ(s.target_at(7), 160.0);  // ramp complete
  EXPECT_EQ(s.target_at(11), 160.0);

  EXPECT_THROW(
      (void)JobSpec::from_config(
          io::Config::parse_string("steps = 5\nstepz = 6\n")),
      Error);  // unknown key 'stepz'
}

TEST(JobSpec, ParsesNumericsKeysIntoTheSharedSpec) {
  const io::Config cfg = io::Config::parse_string(
      "name = numx\nstructure = diamond\nelement = C\nmode = on\n"
      "steps = 4\ndt = 1.0\n"
      "drop_tolerance = 1e-6\nschedule_loosening = 4\n"
      "precision = mixed\nbond_reuse_skin = 0.05\n");
  const JobSpec s = JobSpec::from_config(cfg);
  const NumericsSpec& num = s.calc.numerics;
  EXPECT_EQ(num.drop_tolerance, 1e-6);
  EXPECT_EQ(num.schedule_loosening, 4.0);
  EXPECT_EQ(num.precision, PrecisionMode::kMixed);
  EXPECT_EQ(s.calc.bond_reuse_skin, 0.05);

  // Unknown precision spellings are config errors, not silent defaults.
  EXPECT_THROW((void)NumericsSpec::precision_by_name("quad"), Error);
  // The retired kernel-selection keys and the single-valued schedule and
  // promotion knobs (now NumericsSpec constants) are unknown keys.
  for (const char* retired :
       {"simd", "sub_tile", "schedule_decay", "promote_iteration",
        "promote_threshold"}) {
    try {
      (void)JobSpec::from_config(io::Config::parse_string(
          std::string("steps = 5\nmode = on\n") + retired + " = 1\n"));
      ADD_FAILURE() << retired << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown key '" + std::string(retired) + "'"),
                std::string::npos)
          << what;
    }
  }
}

TEST(JobRunner, FailedJobDoesNotPoisonTheSweep) {
  ScratchDir dir("isolation");
  JobSpec bad = lj_job("bad", 10);
  bad.structure = "xyz";
  bad.xyz_file = dir.file("does_not_exist.xyz");
  const JobSpec good = lj_job("good", 10);

  const auto results = run_sweep({bad, good}, dir.path());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, JobStatus::kFailed);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_EQ(results[1].status, JobStatus::kCompleted);
  EXPECT_EQ(results[1].steps_done, 10);
  EXPECT_TRUE(fs::exists(dir.file("sweep_summary.csv")));
}

TEST(JobRunner, CompletedJobsAreNotRerun) {
  ScratchDir dir("norerun");
  const JobSpec spec = lj_job("once", 12);
  const auto first = run_sweep({spec}, dir.path());
  ASSERT_EQ(first[0].status, JobStatus::kCompleted);
  const auto again = run_sweep({spec}, dir.path());
  EXPECT_EQ(again[0].status, JobStatus::kCompleted);
  EXPECT_TRUE(again[0].resumed);
  EXPECT_EQ(again[0].steps_run, 0);
  EXPECT_EQ(again[0].final_energy, first[0].final_energy);
}

TEST(JobRunner, MultiWorkerSweepMatchesSerial) {
  ScratchDir serial("serial");
  ScratchDir parallel("parallel");
  std::vector<JobSpec> jobs;
  for (int k = 0; k < 3; ++k) {
    JobSpec s = lj_job("job" + std::to_string(k), 15,
                       md::ThermostatSpec::nose_hoover(60.0 + 20.0 * k));
    s.seed = static_cast<std::uint64_t>(100 + k);
    jobs.push_back(s);
  }
  const auto a = run_sweep(jobs, serial.path(), -1, true, 1);
  const auto b = run_sweep(jobs, parallel.path(), -1, true, 2);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    ASSERT_EQ(a[k].status, JobStatus::kCompleted);
    ASSERT_EQ(b[k].status, JobStatus::kCompleted);
    EXPECT_EQ(a[k].final_energy, b[k].final_energy);
    expect_bit_identical(jobs[k], serial.file(jobs[k].name + ".ckpt"),
                         parallel.file(jobs[k].name + ".ckpt"));
  }
}

TEST(Sweep, LoadsJobsAndExpandsReplicas) {
  ScratchDir dir("sweepfile");
  std::ofstream(dir.file("j1.cfg"))
      << "structure = fcc\nelement = Ar\nmodel = lj\nsteps = 5\n";
  std::ofstream(dir.file("sweep.cfg"))
      << "jobs = j1.cfg\nreplicas = 3\nworkers = 2\noutput_dir = out\n";
  const Sweep sw = load_sweep(dir.file("sweep.cfg"));
  EXPECT_EQ(sw.options.workers, 2);
  EXPECT_EQ(sw.options.output_dir, "out");
  ASSERT_EQ(sw.jobs.size(), 3u);
  EXPECT_EQ(sw.jobs[0].name, "j1-r0");  // name defaults to the file stem
  EXPECT_EQ(sw.jobs[2].name, "j1-r2");
  EXPECT_EQ(sw.jobs[0].seed + 2, sw.jobs[2].seed);

  std::ofstream(dir.file("bad.cfg")) << "jobs = j1.cfg\ntypo_key = 1\n";
  EXPECT_THROW((void)load_sweep(dir.file("bad.cfg")), Error);
}

TEST(Sweep, CommandLineOptionsMeetTheSweepFileLimits) {
  // sweep_run copies --workers/--retries/--watchdog into SweepOptions after
  // load_sweep has checked the file; the runner must apply the same limits.
  // Each rejection happens in the constructor, before any worker starts.
  const std::vector<JobSpec> jobs = {lj_job("a", 2)};
  SweepOptions opt;
  opt.workers = 0;
  EXPECT_THROW(JobRunner(jobs, opt), Error);
  opt = {};
  opt.max_job_retries = -1;
  EXPECT_THROW(JobRunner(jobs, opt), Error);
  opt = {};
  opt.step_watchdog_s = -1.0;
  EXPECT_THROW(JobRunner(jobs, opt), Error);
  opt = {};
  opt.threads = -1;
  EXPECT_THROW(JobRunner(jobs, opt), Error);

  // The sweep file rejects the same values, and int keys past INT_MAX
  // fail instead of wrapping (4294967297 would otherwise run 1 worker).
  ScratchDir dir("sweeplimits");
  std::ofstream(dir.file("j.cfg"))
      << "structure = fcc\nmodel = lj\nsteps = 2\n";
  for (const char* bad : {"workers = 0", "workers = 4294967297",
                          "max_job_retries = -1",
                          "max_job_retries = 4294967296"}) {
    std::ofstream(dir.file("s.cfg")) << "jobs = j.cfg\n" << bad << "\n";
    EXPECT_THROW((void)load_sweep(dir.file("s.cfg")), Error) << bad;
  }
}

}  // namespace
}  // namespace tbmd::svc
