#pragma once

/// \file job_spec.hpp
/// \brief Declarative description of one MD trajectory job.
///
/// A JobSpec is everything the job runner needs to (re)create a trajectory
/// from scratch: structure recipe, engine selection (a CalculatorSpec for
/// the tight-binding engines, or a classical potential for cheap tests),
/// thermal protocol and output cadence.  Specs are parsed strictly from
/// io::Config files -- unknown keys are an error, so a typo in a sweep file
/// fails fast instead of silently running with a default.
///
/// Determinism contract: everything dynamical is a pure function of the
/// spec and the step index.  In particular the ramp target returned by
/// target_at(step) depends only on `step`, so a job resumed from a
/// checkpoint at step k applies exactly the targets an uninterrupted run
/// would have applied from step k on.

#include <memory>
#include <string>
#include <vector>

#include "src/core/calculator_spec.hpp"
#include "src/core/element.hpp"
#include "src/core/system.hpp"
#include "src/io/config.hpp"
#include "src/md/thermostat.hpp"

namespace tbmd::svc {

/// Declarative description of one trajectory (see file docs).
struct JobSpec {
  /// Job name; used for output file stems (`<name>.ckpt`, `<name>.tbt`).
  std::string name = "job";

  // --- structure recipe ------------------------------------------------
  /// diamond | fcc | graphene | nanotube | c60 | xyz
  std::string structure = "diamond";
  Element element = Element::Si;
  /// Lattice constant (A); 0 picks the element default.
  double lattice = 0.0;
  /// Bond length (A) for graphene / nanotube; 0 picks the default.
  double bond = 0.0;
  std::vector<int> cells = {2, 2, 2};
  /// Chiral indices (n, m) for nanotube.
  std::vector<int> indices = {10, 0};
  bool periodic = true;
  /// Source file for structure = xyz.
  std::string xyz_file;

  // --- engine ----------------------------------------------------------
  /// Tight-binding model name ("" = default for `element`), or a
  /// classical engine: "tersoff" | "lj".
  std::string model;
  /// Engine options when `model` names a tight-binding model.
  CalculatorSpec calc;
  /// Lennard-Jones overrides (0 = parameter default) when model = lj.
  double lj_epsilon = 0.0;
  double lj_sigma = 0.0;
  double lj_cutoff = 0.0;
  /// OpenMP threads the runner's worker pins while this job runs (any
  /// engine); 0 inherits the worker's ambient team size.  Every kernel,
  /// the LJ and Tersoff force loops included, writes each sum from one
  /// thread in a fixed order, so this never changes results.
  int threads = 0;

  // --- dynamics --------------------------------------------------------
  double dt = 1.0;
  long steps = 100;
  /// Initial temperature (K) for velocity seeding and thermostat target.
  double temperature = 300.0;
  std::uint64_t seed = 42;
  md::ThermostatSpec thermostat;
  /// Linear temperature ramp: target moves from `temperature` to
  /// `ramp_to` over the first `ramp_steps` steps (0 = no ramp).
  double ramp_to = 0.0;
  long ramp_steps = 0;

  // --- output ----------------------------------------------------------
  /// Trajectory sampling cadence in steps (0 = no trajectory).
  long sample_every = 25;
  /// Checkpoint cadence in steps (0 = only the final checkpoint).
  long checkpoint_every = 0;
  bool traj_velocities = false;
  bool traj_lossless = false;

  // --- chaos -----------------------------------------------------------
  /// Fault-injection spec armed before the job runs (see
  /// util/fault_point.hpp for the grammar); "" = nothing armed.  A
  /// test/chaos-run knob -- never a production default.
  std::string faults;

  /// Parse from a config; every key must be consumed (typos throw).
  [[nodiscard]] static JobSpec from_config(const io::Config& cfg);

  /// Parse a single-job spec file.
  [[nodiscard]] static JobSpec from_file(const std::string& path);

  /// Build the initial structure (velocities zero; seeding is the
  /// runner's job so resume never re-draws them).
  [[nodiscard]] System build_system() const;

  /// True when `model` selects a classical potential.
  [[nodiscard]] bool classical() const;

  /// Tight-binding model name after element defaulting (C ->
  /// xwch-carbon, Si -> gsp-silicon, Au -> kirchhoff-gold); for
  /// classical engines, `model` itself.
  [[nodiscard]] std::string resolved_model() const;

  /// Construct the engine; validates the model covers `system`'s species.
  [[nodiscard]] std::unique_ptr<Calculator> make_calculator(
      const System& system) const;

  /// Thermostat target (K) applied while advancing step -> step + 1.
  [[nodiscard]] double target_at(long step) const;
};

}  // namespace tbmd::svc
