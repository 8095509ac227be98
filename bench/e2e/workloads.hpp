#pragma once

/// \file workloads.hpp
/// \brief The benchmark's four workloads, generated from a seed.
///
/// The seed fixes the initial velocities, the vacancy site and the replica
/// seeds; everything else (sizes, engines, ensembles) is part of the
/// workload's definition.  The program under test only ever sees the
/// generated System / JobSpec inputs.
///
///   cnt_exact_md      exact engine, partial spectrum, open (8,0) C tube,
///                     192 atoms, Nose-Hoover 2500 K
///   on_diamond_md     O(N) fp64, drop 1e-6, 216-atom diamond C, NVE 300 K
///   on_si_defect_hot  O(N) mixed precision, drop 1e-6, 215-atom Si with a
///                     vacancy, Nose-Hoover 2500 K
///   sweep_si64        JobRunner: 16 x 64-atom Si replicas, 100 steps each,
///                     2 workers x 2 threads, preempted and resumed

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/calculator_spec.hpp"
#include "src/md/md_driver.hpp"
#include "src/svc/job_runner.hpp"
#include "src/tb/tb_model.hpp"

namespace e2e {

/// Every workload name, in the order a full run executes them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// True for the three single-trajectory MD workloads (false: the sweep).
[[nodiscard]] bool is_md_workload(const std::string& workload);

/// Throws tbmd::Error unless `workload` is one of workload_names().
void require_workload(const std::string& workload);

/// Inputs of one MD trajectory.
struct MdCase {
  tbmd::System system;
  tbmd::tb::TbModel model;
  tbmd::CalculatorSpec spec;
  tbmd::md::MdOptions md;
  /// Steps of one measured trajectory segment.  Step cost drifts as a hot
  /// trajectory disorders, so a run measures whole segments from the
  /// initial state and every commit times the same steps.
  long segment_steps = 0;
  /// Correctness bounds: max force-component error of the O(N) engine
  /// against exact diagonalization on the final configuration (eV/A; 0 for
  /// the exact engine), and the conserved-quantity drift (eV/atom; unused
  /// for the sweep replica, whose jobs are checked through the runner).
  double force_err_bound = 0.0;
  double drift_bound = 0.0;
};

/// The trajectory of an MD workload; for sweep_si64, replica 0 of the
/// sweep (what the setup probe and the traced replay run).
[[nodiscard]] MdCase make_md_case(const std::string& workload,
                                  std::uint64_t seed);

/// A set-up trajectory: the case, its calculator and the driver, whose
/// constructor makes the first force call.  The driver borrows the system
/// and calculator, so an MdRun never moves.
struct MdRun {
  MdRun(MdCase c, std::unique_ptr<tbmd::Calculator> calculator);
  MdRun(const MdRun&) = delete;
  MdRun& operator=(const MdRun&) = delete;

  MdCase c;
  std::unique_ptr<tbmd::Calculator> calc;
  std::optional<tbmd::md::MdDriver> driver;
};

/// Structure build + make_calculator + first force call: what setup_s
/// times.
[[nodiscard]] std::unique_ptr<MdRun> setup_md(const std::string& workload,
                                              std::uint64_t seed);

/// The 16 sweep replicas.
[[nodiscard]] std::vector<tbmd::svc::JobSpec> make_sweep_jobs(
    std::uint64_t seed);

/// Sweep workers and the OpenMP threads each pins.
inline constexpr int kSweepWorkers = 2;
inline constexpr int kSweepThreads = 2;
/// Step budget of the first (preempted) sweep pass.
inline constexpr long kSweepPass1Budget = 800;

/// One sweep round: pass 1 stops at kSweepPass1Budget steps, pass 2
/// resumes every job to completion, then each job's files are read back.
struct SweepRound {
  std::vector<tbmd::svc::JobResult> pass1, pass2;
  double pass1_s = 0.0, pass2_s = 0.0;
  /// Jobs whose .tbt did not read back as steps 0..steps, one frame each.
  int bad_trajectories = 0;
  std::size_t traj_bytes = 0, traj_frames = 0, ckpt_bytes = 0, ckpts = 0;
};

/// Run one round in `dir` (recreated empty; removed again afterwards).
[[nodiscard]] SweepRound run_sweep_round(
    const std::vector<tbmd::svc::JobSpec>& jobs, const std::string& dir);

}  // namespace e2e
