/// \file e2e_trace.cpp
/// \brief Traced run of one workload: the per-layer metrics.
///
///   tbmd_e2e_trace --workload W --seed S --seconds T [--out DIR]
///
/// 1. The traced adapters must reproduce their engine's compute() at step
///    0: bit-equal for O(N), within 1e-9 relative for exact.
/// 2. The workload's trajectory runs on the adapter under MdDriver for a
///    share of --seconds, one span per layer call (for sweep_si64: replica
///    0, replaying the job's trajectory and checkpoint writes at its
///    cadence, then the checkpoint read and trajectory resume).
/// 3. The same steps run untraced on the real engine: tracing overhead.
/// 4. Up to 10 steps run traced at 1 thread: per-layer thread speedup.
/// 5. sweep_si64 also runs one sweep round for the runner's idle share and
///    the on-disk sizes.
/// Writes the spans as Chrome trace-event JSON to
/// DIR/trace-<workload>-<seed>.json and prints a self-time table.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "adapters.hpp"
#include "harness.hpp"
#include "src/io/binary_trajectory.hpp"
#include "src/io/logger.hpp"
#include "src/svc/checkpoint.hpp"
#include "src/util/parallel.hpp"
#include "src/util/timer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace tbmd;
using e2e::Report;
using e2e::Tracer;

constexpr std::size_t kMinSteps = 10;
/// Share of --seconds for the traced loop; the untraced comparison runs
/// the same steps, the serial baseline gets at most kSerialShare.
constexpr double kTracedShare = 0.35;
constexpr double kSerialShare = 0.3;
constexpr long kSerialSteps = 10;
/// Checkpoint reads and trajectory resumes timed after the replay.
constexpr int kIoReps = 5;

/// Layers with a time metric; md.integrate is the md.step span's self
/// time (step wall minus the force call).
const std::vector<std::string> kTimedLayers{
    "neighbor",   "tb.bondtable", "tb.hamiltonian", "onx.assemble",
    "linalg.eigh", "tb.density",  "onx.purify",     "tb.forces",
    "onx.forces", "tb.repulsive", "md.integrate"};

std::string span_of(const std::string& layer) {
  return layer == "md.integrate" ? "md.step" : layer;
}

double at(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Step 0: the adapter against its engine on the same cold input.  The
/// exact check runs at 1 thread: the multithreaded eigensolver is not
/// bit-reproducible, and where degenerate states straddle the Fermi level
/// (the open tube's edge states) two identical engine calls then differ
/// by tenths of an eV/A in the forces.
void check_step0(const e2e::MdCase& c, Report& rep) {
  const int threads = par::max_threads();
  if (c.spec.mode == CalcMode::kExact) par::set_num_threads(1);
  const auto engine = make_calculator(c.model, c.system, c.spec);
  const ForceResult want = engine->compute(c.system);
  Tracer scratch;
  const auto traced = e2e::make_traced_calculator(c.model, c.spec, scratch);
  const ForceResult got = traced->compute(c.system);
  par::set_num_threads(threads);

  bool bit_equal = want.energy == got.energy;
  double fmax = 0.0, ferr = 0.0;
  for (std::size_t i = 0; i < c.system.size(); ++i) {
    const Vec3 d = got.forces[i] - want.forces[i];
    bit_equal &= got.forces[i].x == want.forces[i].x &&
                 got.forces[i].y == want.forces[i].y &&
                 got.forces[i].z == want.forces[i].z;
    fmax = std::max(fmax, norm(want.forces[i]));
    ferr = std::max(ferr, norm(d));
  }
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 3; ++k) {
      bit_equal &= got.virial(r, k) == want.virial(r, k);
    }
  }
  if (c.spec.mode == CalcMode::kOrderN) {
    rep.check(bit_equal,
              "traced O(N) adapter bit-equal to compute() at step 0");
  } else {
    // Relative to the largest force, floored at 1 eV/A: a perfect crystal
    // has forces at roundoff level.
    const double eerr = std::fabs(got.energy - want.energy);
    char what[160];
    std::snprintf(what, sizeof what,
                  "traced exact adapter within 1e-9 of compute() at step 0 "
                  "(|dE| %.2e eV, max |dF| %.2e eV/A)",
                  eerr, ferr);
    rep.check(eerr <= 1e-9 * std::fabs(want.energy) &&
                  ferr <= 1e-9 * std::max(fmax, 1.0),
              what);
  }
}

/// An MD run on a traced adapter, plus a view of the adapter's counters.
struct TracedMd {
  TracedMd(const e2e::Args& a, Tracer& tracer) {
    e2e::MdCase c = e2e::make_md_case(a.workload, a.seed);
    auto traced = e2e::make_traced_calculator(c.model, c.spec, tracer);
    calc = traced.get();
    run = std::make_unique<e2e::MdRun>(std::move(c), std::move(traced));
    tracer.clear();  // drop the constructor's force call (step 0)
    base = calc->counts();
  }
  std::unique_ptr<e2e::MdRun> run;
  const e2e::TracedCalculator* calc = nullptr;
  e2e::LayerCounts base;
};

void traced_step(Tracer& tracer, md::MdDriver& driver, long step) {
  tracer.set_step(step);
  auto s = tracer.scope("md.step");
  driver.step();
}

/// Trajectory-writer and checkpoint replay of one sweep job at its
/// cadence, riding along the traced loop.
struct IoReplay {
  IoReplay(const e2e::Args& a, const System& sys)
      : job(e2e::make_sweep_jobs(a.seed).front()),
        traj(a.out + "/replay-" + std::to_string(a.seed) + ".tbt"),
        ckpt(a.out + "/replay-" + std::to_string(a.seed) + ".ckpt"),
        writer(std::make_unique<io::BinaryTrajectoryWriter>(traj, sys,
                                                             options())) {
    writer->add_frame(sys, 0);
  }

  io::BinaryTrajectoryOptions options() const {
    io::BinaryTrajectoryOptions o;
    o.velocities = job.traj_velocities;
    o.lossless = job.traj_lossless;
    return o;
  }

  void after_step(Tracer& tracer, const md::MdDriver& d, long step) {
    if (step % job.sample_every == 0) {
      auto s = tracer.scope("io.traj.add_frame");
      writer->add_frame(d.system(), step);
      ++frames;
    }
    if (step % job.checkpoint_every == 0) {
      auto s = tracer.scope("svc.ckpt.write");
      writer->flush();
      svc::Checkpoint ck;
      ck.step = step;
      ck.total_steps = job.steps;
      ck.system = d.system();
      if (const md::Thermostat* t = d.thermostat()) {
        ck.thermostat_target = t->target();
        ck.thermostat_state = t->state();
      }
      svc::write_checkpoint(ckpt, ck);
      ++writes;
    }
  }

  /// Close the writer, then time kIoReps checkpoint reads and trajectory
  /// resumes at the final step (which is a checkpoint step).
  void reads(Tracer& tracer, const System& sys) {
    writer.reset();
    for (int r = 0; r < kIoReps; ++r) {
      auto s = tracer.scope("svc.ckpt.read");
      (void)svc::read_checkpoint_with_fallback(ckpt);
    }
    for (int r = 0; r < kIoReps; ++r) {
      auto s = tracer.scope("io.traj.resume");
      (void)io::BinaryTrajectoryWriter::resume(traj, sys, job.steps,
                                               options());
    }
    std::filesystem::remove(traj);
    std::filesystem::remove(ckpt);
    std::filesystem::remove(ckpt + ".prev");
  }

  svc::JobSpec job;
  std::string traj, ckpt;
  std::unique_ptr<io::BinaryTrajectoryWriter> writer;
  long frames = 0, writes = 0;
};

void run_trace(const e2e::Args& a, Report& rep) {
  const bool sweep = !e2e::is_md_workload(a.workload);
  // A sweep job runs on kSweepThreads threads; so does its replay.
  if (sweep) par::set_num_threads(e2e::kSweepThreads);
  const int threads = par::max_threads();
  std::filesystem::create_directories(a.out);

  check_step0(e2e::make_md_case(a.workload, a.seed), rep);

  // --- traced loop -------------------------------------------------------
  Tracer tracer;
  TracedMd traced(a, tracer);
  md::MdDriver& driver = *traced.run->driver;
  std::unique_ptr<IoReplay> io;
  if (sweep) io = std::make_unique<IoReplay>(a, traced.run->c.system);
  // At most one segment (for the sweep, exactly one job's trajectory).
  const long max_steps = traced.run->c.segment_steps;
  long steps = 0;
  WallTimer wall;
  while (steps < max_steps && (wall.seconds() < kTracedShare * a.seconds ||
                               steps < static_cast<long>(kMinSteps))) {
    traced_step(tracer, driver, ++steps);
    if (io) io->after_step(tracer, driver, steps);
  }
  if (io) io->reads(tracer, traced.run->c.system);
  const double traced_ms = tracer.total_ms("md.step", 1, steps);
  const auto self = tracer.self_ms(1, steps);
  const e2e::LayerCounts& c1 = traced.calc->counts();
  const e2e::LayerCounts& c0 = traced.base;

  // --- the same steps untraced, on the engine itself --------------------
  double untraced_ms = 0.0;
  {
    std::unique_ptr<e2e::MdRun> plain = e2e::setup_md(a.workload, a.seed);
    for (long s = 0; s < steps; ++s) {
      WallTimer t;
      plain->driver->step();
      untraced_ms += 1e3 * t.seconds();
    }
  }

  // --- serial baseline ----------------------------------------------------
  Tracer serial_tracer;
  long serial_steps = 0;
  {
    par::set_num_threads(1);
    TracedMd serial(a, serial_tracer);
    WallTimer t;
    while (serial_steps < std::min(kSerialSteps, steps) &&
           (serial_steps < 3 || t.seconds() < kSerialShare * a.seconds)) {
      traced_step(serial_tracer, *serial.run->driver, ++serial_steps);
    }
    par::set_num_threads(threads);
  }
  const auto serial_self = serial_tracer.self_ms(1, serial_steps);
  const auto parallel_self = tracer.self_ms(1, serial_steps);

  // --- metrics -------------------------------------------------------------
  const double n = static_cast<double>(steps);
  for (const std::string& layer : kTimedLayers) {
    rep.metric(layer + ".ms_per_step", at(self, span_of(layer)) / n, "ms");
  }
  rep.metric("neighbor.rebuilds",
             static_cast<double>(c1.neighbor_rebuilds - c0.neighbor_rebuilds) / n,
             "1/step");
  rep.metric("linalg.eigh.window_frac",
             ratio(c1.eig_pairs - c0.eig_pairs, c1.eig_norb - c0.eig_norb),
             "ratio");
  const auto iters =
      static_cast<double>(c1.purify_iterations - c0.purify_iterations);
  const auto symbolic = static_cast<double>(c1.spmm_symbolic - c0.spmm_symbolic);
  const auto reuses = static_cast<double>(c1.spmm_reuses - c0.spmm_reuses);
  rep.metric("onx.purify.iterations", iters / n, "1/step");
  rep.metric("onx.purify.ms_per_iteration", ratio(at(self, "onx.purify"), iters),
             "ms");
  rep.metric("onx.purify.fp32_iterations",
             static_cast<double>(c1.fp32_iterations - c0.fp32_iterations) / n,
             "1/step");
  rep.metric("onx.spmm.symbolic_builds", symbolic / n, "1/step");
  rep.metric("onx.spmm.numeric_reuses", reuses / n, "1/step");
  rep.metric("onx.spmm.reuse_ratio", ratio(reuses, symbolic + reuses), "ratio");
  rep.metric("onx.density.fill", (c1.density_fill - c0.density_fill) / n,
             "ratio");
  rep.metric("onx.density.mbytes", (c1.density_mbytes - c0.density_mbytes) / n,
             "MB");
  rep.metric("md.step.ms_per_step", traced_ms / n, "ms");
  for (const std::string& layer : kTimedLayers) {
    rep.metric(layer + ".thread_speedup",
               ratio(at(serial_self, span_of(layer)),
                     at(parallel_self, span_of(layer))),
               "ratio");
  }
  rep.metric("md.step.thread_speedup",
             ratio(serial_tracer.total_ms("md.step", 1, serial_steps),
                   tracer.total_ms("md.step", 1, serial_steps)),
             "ratio");
  rep.metric("trace.overhead_frac", ratio(traced_ms, untraced_ms) - 1.0,
             "ratio");
  // Share of step wall the layer spans account for: all but the adapter's
  // own glue between layer calls.
  rep.metric("trace.coverage", 1.0 - ratio(at(self, "md.force"), traced_ms),
             "ratio");
  rep.metric("trace.steps", n, "count");
  rep.metric("trace.serial_steps", static_cast<double>(serial_steps), "count");
  rep.metric("trace.threads", threads, "count");

  const long unconverged = c1.unconverged - c0.unconverged;
  rep.operations(steps, unconverged);
  rep.check(unconverged == 0, std::to_string(unconverged) +
                                  " unconverged purifications (traced)");

  // --- checkpoint / trajectory / runner -------------------------------------
  double write_ms = 0.0, read_ms = 0.0, frame_us = 0.0, resume_ms = 0.0;
  double ckpt_bytes = 0.0, frame_bytes = 0.0, idle = 0.0;
  if (sweep) {
    write_ms = tracer.total_ms("svc.ckpt.write", 0, steps) /
               static_cast<double>(std::max(io->writes, 1L));
    read_ms = tracer.total_ms("svc.ckpt.read", 0, steps) / kIoReps;
    frame_us = 1e3 * tracer.total_ms("io.traj.add_frame", 0, steps) /
               static_cast<double>(std::max(io->frames, 1L));
    resume_ms = tracer.total_ms("io.traj.resume", 0, steps) / kIoReps;

    const e2e::SweepRound r = e2e::run_sweep_round(
        e2e::make_sweep_jobs(a.seed),
        a.out + "/trace-sweep-" + std::to_string(a.seed));
    double job_s = 0.0;
    long incomplete = 0;
    for (std::size_t i = 0; i < r.pass2.size(); ++i) {
      job_s += r.pass1[i].wall_seconds + r.pass2[i].wall_seconds;
      if (r.pass2[i].status != svc::JobStatus::kCompleted) ++incomplete;
    }
    idle = 1.0 - job_s / (e2e::kSweepWorkers * (r.pass1_s + r.pass2_s));
    ckpt_bytes = ratio(static_cast<double>(r.ckpt_bytes),
                       static_cast<double>(r.ckpts));
    frame_bytes = ratio(static_cast<double>(r.traj_bytes),
                        static_cast<double>(r.traj_frames));
    rep.operations(static_cast<long>(r.pass2.size()), incomplete);
    rep.check(incomplete == 0 && r.bad_trajectories == 0,
              "sweep round completed and read back");
  }
  rep.metric("svc.ckpt.write_ms", write_ms, "ms");
  rep.metric("svc.ckpt.read_ms", read_ms, "ms");
  rep.metric("svc.ckpt.bytes", ckpt_bytes, "bytes");
  rep.metric("io.traj.frame_us", frame_us, "us");
  rep.metric("io.traj.bytes_per_frame", frame_bytes, "bytes");
  rep.metric("io.traj.resume_ms", resume_ms, "ms");
  rep.metric("svc.runner.worker_idle_frac", idle, "ratio");

  // --- trace file + self-time table -----------------------------------------
  const std::string path = a.out + "/trace-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  tracer.write_chrome(path);
  std::printf("self time over %ld traced steps (%s), %% of md.step wall:\n",
              steps, path.c_str());
  for (const auto& [name, ms] : tracer.self_ms(0, steps)) {
    std::printf("  %-22s %10.3f ms %6.2f %%\n", name.c_str(), ms,
                100.0 * ratio(ms, traced_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const e2e::Args a = e2e::parse_args(argc, argv);
    io::set_log_level(io::LogLevel::kWarn);
    Report rep(a.workload);
    run_trace(a, rep);
    return rep.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tbmd_e2e_trace: %s\n", e.what());
    return 2;
  }
}
