#pragma once

/// \file numerics_spec.hpp
/// \brief Unified numerics policy of the O(N) engine: precision mode and
/// truncation schedule.
///
/// One struct that every layer -- purification loop, calculator,
/// declarative spec, JobSpec files, sweep CLI -- agrees on.  CalculatorSpec
/// carries one by value, fingerprint-relevant (unlike `threads`, these
/// knobs change results).  onx::PurificationOptions inherits it; that base
/// stays only because bench/e2e/adapters.cpp assigns a spec's numerics
/// into it by slicing (`static_cast<NumericsSpec&>(popts) = ...`).
///
/// Precision model (mixed mode): purification iterations far from
/// idempotency run their SpMM on fp32 tiles -- half the memory traffic
/// exactly where the numeric phase is bandwidth-bound -- and the loop
/// promotes the density matrix to fp64 tiles for the tight-late
/// iterations.  Traces, the final McWeeny polish and both force
/// contractions are always fp64; convergence is never declared on fp32
/// tiles.  fp64 mode is bit-identical to the engine before mixed precision
/// existed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "src/util/error.hpp"

namespace tbmd {

/// Tile precision policy of the purification loop.
enum class PrecisionMode : std::uint8_t {
  kF64,    ///< every iteration on fp64 tiles (bit-identical legacy path)
  kMixed,  ///< loose-early iterations on fp32 tiles, promoted to fp64
};

/// Numerics policy shared by the purification loop, OrderNCalculator,
/// CalculatorSpec and the JobSpec/CLI parsers.  Every field changes
/// results (unlike scheduling knobs), so CalculatorSpec::fingerprint()
/// encodes all of them.
struct NumericsSpec {
  /// Magnitude below which matrix entries (tiles, by Frobenius norm, on
  /// the blocked path) are dropped after each product.  0 keeps everything
  /// (exact arithmetic up to roundoff).
  double drop_tolerance = 1e-7;

  /// Per-iteration drop-threshold schedule: iteration `it` (1-based)
  /// truncates at drop_tolerance * max(1, loosening * kScheduleDecay^(it-1)).
  /// Early iterations are far from idempotency, so aggressive truncation
  /// there costs no final accuracy but keeps the fill (and hence the SpMM
  /// cost) down while the polynomial still reshapes the whole spectrum;
  /// late iterations and the final polish run at the tight tolerance.
  /// schedule_loosening = 1 disables the schedule.
  double schedule_loosening = 8.0;
  static constexpr double kScheduleDecay = 0.5;

  /// Tile precision policy (see PrecisionMode).
  PrecisionMode precision = PrecisionMode::kF64;

  /// Mixed mode: promote to fp64 once the idempotency error per state
  /// tr(P - P^2)/N falls below this, the ~1e-4 error the loosened early
  /// drop schedule already tolerates.
  static constexpr double kPromoteThreshold = 1e-4;

  /// Effective tile-drop threshold for (1-based) iteration `it`.
  [[nodiscard]] double drop_at(int it) const {
    const double loosening =
        schedule_loosening * std::pow(kScheduleDecay, it - 1);
    return drop_tolerance * std::max(1.0, loosening);
  }

  /// Precision mode from its config spelling ("fp64", "mixed"); throws
  /// tbmd::Error on unknown names.
  [[nodiscard]] static PrecisionMode precision_by_name(
      const std::string& name) {
    if (name == "fp64" || name == "f64" || name == "double") {
      return PrecisionMode::kF64;
    }
    if (name == "mixed" || name == "fp32" || name == "f32") {
      return PrecisionMode::kMixed;
    }
    throw Error("unknown precision mode: " + name);
  }

  /// Config spelling of the precision mode (round-trips through
  /// precision_by_name).
  [[nodiscard]] std::string precision_name() const {
    return precision == PrecisionMode::kMixed ? "mixed" : "fp64";
  }
};

}  // namespace tbmd
