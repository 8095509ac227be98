#pragma once

/// \file health_spec.hpp
/// \brief Numerics guardrails + recovery-ladder policy of the O(N) engine.
///
/// The purification loop has documented failure modes that used to pass
/// silently into forces: canonical purification stalls (converged = false)
/// on metallic spectra, truncation can stall it too, and a corrupted tile
/// turns the whole density matrix to NaN in two multiplies.  HealthSpec is
/// the policy that turns those into *classified* failures: with `enabled`
/// set, OrderNCalculator scans each step's density/energy/forces and,
/// instead of returning garbage, walks a recovery ladder --
///
///   (a) re-run the step fp64-only when the failing run was mixed,
///   (b) re-run with a tightened drop tolerance after a cold cache rebuild
///       (pattern cache + cached spectral bounds invalidated),
///   (c) exact-diagonalization fallback for this step only,
///   (d) throw a typed NumericsError carrying the FailureClass
///       (structured job failure; the job runner records the class).
///
/// The ladder is fixed: every applicable rung runs, in that order.  Like
/// NumericsSpec, every field changes results *when a retry triggers*.
/// Disabled (the default), the calculator performs no scans and no
/// retries and stays bit-identical to the pre-guardrail engine; an
/// unconverged purification is then only counted and logged (never used
/// silently without trace).

#include <cstdint>
#include <string>

#include "src/util/error.hpp"

namespace tbmd {

/// Classification of a guarded-step failure (what tripped, not where).
enum class FailureClass : std::uint8_t {
  kNone,            ///< healthy step
  kNonFinite,       ///< NaN/Inf in the density, energy or forces
  kNonConvergence,  ///< purification exhausted its iterations / stalled
  kForceBound,      ///< a force component exceeded HealthSpec::max_force
  kEnergyBound,     ///< |energy|/atom exceeded max_energy_per_atom
  kWatchdog,        ///< job-runner step watchdog preempted the job
};

[[nodiscard]] constexpr const char* failure_class_name(FailureClass c) {
  switch (c) {
    case FailureClass::kNone:
      return "none";
    case FailureClass::kNonFinite:
      return "non-finite";
    case FailureClass::kNonConvergence:
      return "non-convergence";
    case FailureClass::kForceBound:
      return "force-bound";
    case FailureClass::kEnergyBound:
      return "energy-bound";
    case FailureClass::kWatchdog:
      return "watchdog";
  }
  return "unknown";
}

/// Guardrail + recovery policy consumed by OrderNCalculator (see file
/// docs).  Carried by value on CalculatorSpec and parsed from JobSpec
/// files (`health`, `max_force`, `max_energy_per_atom` keys).
struct HealthSpec {
  /// Master switch.  On: every step's density tiles, band energy and
  /// forces are scanned for NaN/Inf, and an unconverged purification is a
  /// failure instead of a density used anyway.  Off (default): no scans,
  /// no retries, bit-identical to the unguarded engine; unconverged
  /// purifications are only counted and logged.
  bool enabled = false;

  /// Per-component force sanity bound (eV/A); 0 disables the check.
  double max_force = 0.0;

  /// |total energy| per atom sanity bound (eV); 0 disables the check.
  double max_energy_per_atom = 0.0;
};

/// Rung (b) retries with drop_tolerance * kTightenFactor (and the
/// loose-early schedule off) after a cold cache rebuild.
inline constexpr double kTightenFactor = 0.1;

/// Typed error raised by the guardrails when the recovery ladder is
/// exhausted (or skipped): carries the failure class so the job runner can
/// record *why* the step died, not just that it threw.
class NumericsError : public Error {
 public:
  NumericsError(FailureClass failure_class, const std::string& what)
      : Error(what), class_(failure_class) {}

  [[nodiscard]] FailureClass failure_class() const { return class_; }

 private:
  FailureClass class_;
};

}  // namespace tbmd
