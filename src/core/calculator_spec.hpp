#pragma once

/// \file calculator_spec.hpp
/// \brief Declarative calculator construction: one spec, both TB engines.
///
/// CalculatorSpec is the one configuration type of the two TB engines:
/// tb::TightBindingCalculator and onx::OrderNCalculator take it by value
/// and each reads its own fields (engine mode, accuracy knobs, electronic
/// temperature).  make_calculator() picks the engine `mode` names, so
/// callers that choose an engine at runtime -- the config runner, the job
/// runner, every crossover/ablation bench -- treat "which engine" as data
/// instead of code.

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

/// Which eigenvectors the exact engine's diagonalization step computes.
/// Every policy takes the whole spectrum's eigenvalues.
enum class SpectrumPolicy {
  /// The weighted states: eigenvectors for every state with nonzero
  /// occupation plus the next one (the default).
  kAuto,
  /// Eigenvectors for every state: the reference the window is tested
  /// against.
  kFull,
  /// Same as kAuto.  The name stays because bench/e2e/adapters.cpp reads it.
  kPartial,
};

/// Declarative calculator description.  Each engine ignores the fields of
/// the other; CalculatorSpec{} (= exact()) builds the library's standard
/// exact calculator and order_n() the standard O(N) one.
struct CalculatorSpec {
  CalcMode mode = CalcMode::kExact;
  /// Verlet skin added to the model cutoff for the neighbor list (A).
  double skin = 0.5;
  /// Electronic temperature for Fermi-Dirac smearing (K); 0 = aufbau
  /// filling.  When > 0 the exact engine's reported energy includes the
  /// -T*S_el Mermin term so that MD with smeared occupations conserves the
  /// free energy.  The O(N) engine integrates at T_el = 0 only and rejects
  /// any other value.
  double electronic_temperature = 0.0;

  // --- exact engine ---
  /// Eigenvector policy for the diagonalization step.  Occupations, density
  /// matrix and Hellmann-Feynman forces only involve the states with
  /// nonzero weight (the ~Ne/2 occupied ones at T = 0, plus the Fermi tail
  /// when electronic_temperature > 0), so by default only those, plus the
  /// next state for the Fermi level, get eigenvectors, which skips close to
  /// half the O(N^3) work.
  SpectrumPolicy spectrum = SpectrumPolicy::kAuto;
  /// Copy the whole eigenvalue spectrum into each ForceResult (an O(N)
  /// copy; the solve is the same either way).  Analyses that consume the
  /// spectrum (EDOS, HOMO-LUMO gaps) need this.  bench/e2e/adapters.cpp
  /// reads it too.
  bool report_eigenvalues = true;

  // --- O(N) engine ---
  /// Numerics policy of the purification loop: drop tolerance + schedule,
  /// precision mode (fp64 / mixed), promotion policy.
  NumericsSpec numerics;
  /// Reuse the symbolic SpMM patterns of previous steps while the bond
  /// topology is unchanged (the steady-state fast path).  false forces a
  /// cold symbolic rebuild every step; results are bit-identical either
  /// way (ablation switch for the bit-identity regression tests).
  bool reuse_patterns = true;
  /// Contiguous block-row domains for the sharded SpMM / H-assembly
  /// sweeps.  0 = auto: 4 domains per OpenMP thread when the team has more
  /// than one thread and the system has >= 512 atoms, else off.  1 = off;
  /// >= 2 = explicit count.  Scheduling only (stable thread -> domain
  /// ownership): results are bit-identical at any value.
  int domains = 0;
  /// Cache Gershgorin spectral bounds across steps (norm-widened on
  /// pattern hits).  Saves an O(nnz) pass per warm step but makes the
  /// purification seed history-dependent, so checkpoint kill-and-resume
  /// is no longer bit-reproducible with this on; default off.
  bool cache_spectral_bounds = false;
  /// BondTable reuse (A): freeze Slater-Koster blocks of bonds whose
  /// endpoints moved less than half this skin since their last evaluation
  /// (see tb::BondTable::build).  Frozen bonds break energy conservation:
  /// over 55 NVE steps of 216-atom diamond C (O(N), drop 1e-6, 300 K) the
  /// largest |E - E0| per atom is 3.2e-4 eV at 0, 0.13 eV at 0.05 A and
  /// 2.9 eV at 0.3 A, for ~0.2 ms saved of a ~500 ms step.  Leave it at 0
  /// (the default) outside ablations.
  double bond_reuse_skin = 0.0;
  /// Numerics guardrails + recovery ladder of the O(N) engine (see
  /// core/health_spec.hpp).  Off by default; when enabled it can change
  /// results (a triggered retry reruns the step under different numerics).
  HealthSpec health;

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
};

/// Build the calculator a spec describes for `model`.  `system` supplies
/// construction-time checks only: every species present must be
/// parameterized by the model.
[[nodiscard]] std::unique_ptr<Calculator> make_calculator(
    const tb::TbModel& model, const System& system,
    const CalculatorSpec& spec);

/// Overload without construction-time checks.
[[nodiscard]] std::unique_ptr<Calculator> make_calculator(
    const tb::TbModel& model, const CalculatorSpec& spec);

}  // namespace tbmd
