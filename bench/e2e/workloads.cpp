#include "workloads.hpp"

#include <algorithm>
#include <filesystem>

#include "src/io/binary_trajectory.hpp"
#include "src/md/velocities.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/nanotube.hpp"
#include "src/util/error.hpp"
#include "src/util/random.hpp"
#include "src/util/timer.hpp"

namespace e2e {

using namespace tbmd;

namespace {

/// k-th independent sub-seed of the run seed (velocities, vacancy site,
/// replicas each draw their own).
std::uint64_t sub_seed(std::uint64_t seed, int k) {
  SplitMix64 sm(seed);
  std::uint64_t v = sm.next();
  for (int i = 0; i < k; ++i) v = sm.next();
  return v;
}

/// Amplitude (A) of the random distortion of the Si vacancy cell.
constexpr double kSiPerturbation = 0.1;

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "cnt_exact_md", "on_diamond_md", "on_si_defect_hot", "sweep_si64"};
  return names;
}

bool is_md_workload(const std::string& workload) {
  return workload != "sweep_si64";
}

void require_workload(const std::string& workload) {
  const auto& names = workload_names();
  TBMD_REQUIRE(std::find(names.begin(), names.end(), workload) != names.end(),
               "unknown workload '" + workload + "'");
}

MdCase make_md_case(const std::string& workload, std::uint64_t seed) {
  require_workload(workload);
  MdCase c;
  if (workload == "cnt_exact_md") {
    c.system = structures::nanotube(Element::C, 8, 0, 1.42, 6,
                                    /*periodic=*/false);
    c.model = tb::xwch_carbon();
    c.spec = CalculatorSpec::exact();
    // Forces need only the occupied states: the partial-spectrum path.
    c.spec.report_eigenvalues = false;
    c.md = md::MdOptions(1.0, md::ThermostatSpec::nose_hoover(2500.0));
    md::maxwell_boltzmann_velocities(c.system, 2500.0, sub_seed(seed, 0));
    c.segment_steps = 110;
    // T_el = 0 with partly filled edge states conserves poorly: seeds
    // 101-110 drifted 2.6e-3 to 4.7e-3 eV/atom over one segment.
    c.drift_bound = 1e-2;
  } else if (workload == "on_diamond_md") {
    c.system = structures::diamond(Element::C, 3.567, 3, 3, 3);
    c.model = tb::xwch_carbon();
    c.spec = CalculatorSpec::order_n(1e-6);
    c.md = md::MdOptions(1.0);
    md::maxwell_boltzmann_velocities(c.system, 300.0, sub_seed(seed, 0));
    c.segment_steps = 55;
    // Twice the largest value measured on the seed commit (3.3e-3 eV/A;
    // drift 3.4e-4 eV/atom).
    c.force_err_bound = 7e-3;
    c.drift_bound = 1e-3;
  } else if (workload == "on_si_defect_hot") {
    const System bulk = structures::diamond(Element::Si, 5.431, 3, 3, 3);
    Rng rng(sub_seed(seed, 1));
    c.system = structures::with_vacancy(bulk, rng.below(bulk.size()));
    // The ideal vacancy's dangling-bond triplet holds two electrons, so
    // the Fermi level sits inside a degenerate level and canonical
    // purification cannot converge; a random distortion splits it.
    structures::perturb(c.system, kSiPerturbation, sub_seed(seed, 2));
    c.model = tb::gsp_silicon();
    c.spec = CalculatorSpec::order_n_mixed(1e-6);
    c.md = md::MdOptions(1.0, md::ThermostatSpec::nose_hoover(2500.0));
    md::maxwell_boltzmann_velocities(c.system, 2500.0, sub_seed(seed, 0));
    c.segment_steps = 35;
    // Twice the largest value measured on the seed commit (2.9e-3 eV/A;
    // drift 2.5e-4 eV/atom).
    c.force_err_bound = 6e-3;
    c.drift_bound = 1e-3;
  } else {
    // Replica 0 of the sweep, set up exactly as the job runner does it.
    const svc::JobSpec job = make_sweep_jobs(seed).front();
    c.system = job.build_system();
    md::maxwell_boltzmann_velocities(c.system, job.temperature, job.seed);
    c.model = tb::model_by_name(job.resolved_model());
    c.spec = job.calc;
    c.md = md::MdOptions(job.dt, job.thermostat);
    c.segment_steps = job.steps;
  }
  return c;
}

MdRun::MdRun(MdCase case_in, std::unique_ptr<Calculator> calculator)
    : c(std::move(case_in)), calc(std::move(calculator)) {
  driver.emplace(c.system, *calc, c.md);
}

std::unique_ptr<MdRun> setup_md(const std::string& workload,
                                std::uint64_t seed) {
  MdCase c = make_md_case(workload, seed);
  std::unique_ptr<Calculator> calc = make_calculator(c.model, c.system, c.spec);
  return std::make_unique<MdRun>(std::move(c), std::move(calc));
}

std::vector<svc::JobSpec> make_sweep_jobs(std::uint64_t seed) {
  std::vector<svc::JobSpec> jobs;
  for (int k = 0; k < 16; ++k) {
    svc::JobSpec job;  // default CalculatorSpec: exact, full spectrum
    job.name = "si64-r" + std::to_string(k);
    job.structure = "diamond";
    job.element = Element::Si;
    job.cells = {2, 2, 2};
    job.steps = 100;
    job.seed = sub_seed(seed, 3 + k);
    job.sample_every = 1;
    job.traj_velocities = true;
    job.checkpoint_every = 10;
    jobs.push_back(job);
  }
  return jobs;
}

namespace {

svc::SweepOptions sweep_options(const std::string& dir, long step_budget) {
  svc::SweepOptions o;
  o.workers = kSweepWorkers;
  o.threads = kSweepThreads;
  o.output_dir = dir;
  o.resume = true;
  o.step_budget = step_budget;
  o.verbose = false;
  return o;
}

}  // namespace

SweepRound run_sweep_round(const std::vector<svc::JobSpec>& jobs,
                           const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  SweepRound round;
  WallTimer t;
  round.pass1 = svc::JobRunner(jobs, sweep_options(dir, kSweepPass1Budget)).run();
  round.pass1_s = t.seconds();
  t.reset();
  round.pass2 = svc::JobRunner(jobs, sweep_options(dir, -1)).run();
  round.pass2_s = t.seconds();

  for (const svc::JobSpec& job : jobs) {
    const fs::path traj = fs::path(dir) / (job.name + ".tbt");
    const fs::path ckpt = fs::path(dir) / (job.name + ".ckpt");
    if (fs::exists(ckpt)) {
      round.ckpt_bytes += fs::file_size(ckpt);
      ++round.ckpts;
    }
    bool ok = fs::exists(traj);
    if (ok) {
      round.traj_bytes += fs::file_size(traj);
      try {
        io::BinaryTrajectoryReader reader(traj.string());
        io::TrajectoryFrame frame;
        long expect = 0;
        while (reader.next(frame)) {
          ok &= frame.step == expect;
          expect += job.sample_every;
          ++round.traj_frames;
        }
        ok &= expect == job.steps + job.sample_every;
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) ++round.bad_trajectories;
  }
  fs::remove_all(dir);
  return round;
}

}  // namespace e2e
