#pragma once

/// \file calculator_spec.hpp
/// \brief Declarative calculator construction: one spec, both TB engines.
///
/// The exact-diagonalization and O(N) purification calculators grew
/// separate option structs (tb::TbOptions, onx::OrderNOptions).  Callers
/// that must choose an engine at runtime -- the config runner, the job
/// runner, every crossover/ablation bench -- previously hand-rolled both
/// construction paths.  CalculatorSpec is the single declarative
/// description (engine mode, accuracy knobs, electronic temperature) and
/// make_calculator() the one factory that resolves it against a model, so
/// "which engine" becomes data instead of code.

#include <memory>
#include <string>

#include "src/core/calculator.hpp"
#include "src/core/health_spec.hpp"
#include "src/core/numerics_spec.hpp"

namespace tbmd {

namespace tb {
struct TbModel;
}  // namespace tb

/// Which energy/force engine a CalculatorSpec resolves to.
enum class CalcMode {
  kExact,   ///< tb::TightBindingCalculator (O(N^3) diagonalization)
  kOrderN,  ///< onx::OrderNCalculator (density-matrix purification)
};

/// Spectrum policy of the exact engine (mirrors tb::SpectrumMode without
/// making core depend on the tb headers).
enum class SpectrumPolicy { kAuto, kFull, kPartial };

/// Declarative calculator description.  Fields irrelevant to the chosen
/// mode are ignored by the factory; defaults match the engines' own
/// defaults, so CalculatorSpec{} builds the library's standard exact
/// calculator.
struct CalculatorSpec {
  CalcMode mode = CalcMode::kExact;
  /// Verlet skin added to the model cutoff for the neighbor list (A).
  double skin = 0.5;
  /// Electronic temperature for Fermi-Dirac smearing (K); 0 = aufbau.
  double electronic_temperature = 0.0;

  // --- exact engine ---
  SpectrumPolicy spectrum = SpectrumPolicy::kAuto;
  /// Copy the eigenvalue spectrum into each ForceResult.
  bool report_eigenvalues = true;

  // --- O(N) engine ---
  /// Numerics policy of the purification loop: drop tolerance + schedule,
  /// precision mode (fp64 / mixed), promotion policy.  Every field changes
  /// results, so all of them are fingerprint-relevant (unlike `threads`
  /// below).
  NumericsSpec numerics;
  /// Reuse symbolic SpMM patterns across steps (ablation switch; results
  /// are bit-identical either way).
  bool reuse_patterns = true;
  /// Block-row domain count for the sharded O(N) sweeps (0 = auto-size
  /// from the thread count, 1 = off, >= 2 explicit); scheduling-level
  /// only, results are bit-identical at any value.
  int domains = 0;
  /// Cache Gershgorin spectral bounds across steps (norm-widened on
  /// pattern hits).  Saves an O(nnz) pass per warm step but makes the
  /// purification seed history-dependent, so checkpoint kill-and-resume
  /// is no longer bit-reproducible with this on; default off.
  bool cache_spectral_bounds = false;
  /// Verlet-skin-lifetime BondTable reuse (A): freeze Slater-Koster
  /// blocks of bonds whose endpoints moved less than half this skin since
  /// their last evaluation (see onx::OrderNOptions::bond_reuse_skin).
  /// 0 = off (the default; like cache_spectral_bounds, reuse trades
  /// checkpoint bit-reproducibility for throughput).
  double bond_reuse_skin = 0.0;
  /// Numerics guardrails + recovery ladder of the O(N) engine (see
  /// core/health_spec.hpp).  Off by default; when enabled it can change
  /// results (a triggered retry reruns the step under different numerics),
  /// so the enabled spec is fingerprint-relevant.
  HealthSpec health;

  // --- execution (any engine) ---
  /// OpenMP threads to pin while this calculator's jobs run: 0 inherits
  /// the worker's ambient team size, > 0 overrides it per job (the
  /// `TBMD_THREADS`-style knob for sweep workers).  An execution-resource
  /// hint, not part of the calculator's identity: it never changes
  /// results (every kernel is thread-count invariant), so fingerprint()
  /// deliberately excludes it and jobs differing only in `threads` share
  /// a cached calculator.
  int threads = 0;

  [[nodiscard]] static CalculatorSpec exact() { return {}; }

  [[nodiscard]] static CalculatorSpec order_n(double drop_tolerance = 1e-7) {
    CalculatorSpec s;
    s.mode = CalcMode::kOrderN;
    s.numerics.drop_tolerance = drop_tolerance;
    return s;
  }

  /// O(N) engine with the mixed-precision purification loop (fp32 tiles
  /// for the loose-early iterations, automatic fp64 promotion).
  [[nodiscard]] static CalculatorSpec order_n_mixed(
      double drop_tolerance = 1e-7) {
    CalculatorSpec s = order_n(drop_tolerance);
    s.numerics.precision = PrecisionMode::kMixed;
    return s;
  }

  /// Mode from its config spelling ("exact"/"tb-exact", "on"/"tb-on");
  /// throws tbmd::Error on unknown names.
  [[nodiscard]] static CalcMode mode_by_name(const std::string& name);

  /// Config spelling of mode (round-trips through mode_by_name).
  [[nodiscard]] std::string mode_name() const;

  /// Stable one-line encoding of every field.  Two specs with equal
  /// fingerprints construct interchangeable calculators -- the job runner
  /// keys its per-worker calculator cache on (model name, fingerprint).
  [[nodiscard]] std::string fingerprint() const;
};

/// Build the calculator a spec describes for `model`.  `system` supplies
/// construction-time context (currently only sanity checks: every species
/// present must be parameterized by the model); the returned calculator is
/// system-agnostic and may be reused across systems, like the engines it
/// wraps.
[[nodiscard]] std::unique_ptr<Calculator> make_calculator(
    const tb::TbModel& model, const System& system,
    const CalculatorSpec& spec);

/// Overload without construction-time checks.
[[nodiscard]] std::unique_ptr<Calculator> make_calculator(
    const tb::TbModel& model, const CalculatorSpec& spec);

}  // namespace tbmd
