#pragma once

/// \file calculator.hpp
/// \brief The energy/force model interface consumed by the MD engine, the
/// relaxers and the experiment harness.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/system.hpp"
#include "src/linalg/spectral_bounds.hpp"
#include "src/util/timer.hpp"

namespace tbmd {

/// Result of a single energy/force evaluation.
struct ForceResult {
  /// Total potential energy (eV).
  double energy = 0.0;
  /// Force on each atom (eV/A).
  std::vector<Vec3> forces;
  /// Virial tensor W = sum over bonds of r_ij (x) f_ij (eV); the
  /// instantaneous pressure is (2 KE + tr W) / (3 V).  Zero for cluster
  /// systems where pressure is undefined.
  Mat3 virial{};

  // --- model-specific extras (zero / empty when not applicable) ---

  /// Attractive band-structure part of the energy (TB models).
  double band_energy = 0.0;
  /// Repulsive pair/embedded part of the energy (TB models).
  double repulsive_energy = 0.0;
  /// Single-particle eigenvalues, ascending (TB models with exact
  /// diagonalization; empty otherwise).
  std::vector<double> eigenvalues;
  /// Chemical potential used for the occupations (TB models).
  double fermi_level = 0.0;
};

/// Phases of one compute() call, in pipeline order.  The classical
/// potentials run only kNeighbors and kForces; the exact engine never
/// purifies and the O(N) engine never diagonalizes.
enum class Phase : std::uint8_t {
  kNeighbors,
  kBondTable,
  kHamiltonian,
  kDiagonalize,
  kDensity,
  kPurification,
  kForces,
  kRepulsive,
};
inline constexpr std::size_t kPhaseCount = 8;

/// Label of a phase in printed breakdown tables ("neighbors", "bondtable",
/// "hamiltonian", "diagonalize", "density", "purification", "forces",
/// "repulsive").
[[nodiscard]] constexpr const char* phase_name(Phase phase) {
  constexpr std::array<const char*, kPhaseCount> kNames{
      "neighbors", "bondtable",    "hamiltonian", "diagonalize",
      "density",   "purification", "forces",      "repulsive"};
  return kNames[static_cast<std::size_t>(phase)];
}

/// What the last compute() did: per-phase wall time and the work counts of
/// each engine.  Every compute() starts from StepReport{}, so the report
/// covers one call; fields an engine does not use stay zero (as in
/// ForceResult).
struct StepReport {
  /// Wall seconds per phase, indexed by Phase.  A phase entered twice in
  /// one call (the exact engine's values and vectors stages, a
  /// recovery-ladder retry) adds up.
  std::array<double, kPhaseCount> seconds{};
  /// NeighborList::ensure rebuilt the list.
  bool neighbor_rebuilt = false;

  // --- exact engine ---
  /// Eigenvectors computed: the weighted states plus the next one, or the
  /// orbital count under SpectrumPolicy::kFull.
  std::size_t eigenpairs = 0;

  // --- O(N) engine ---
  /// SpMM symbolic-phase builds and frozen-pattern numeric reuses of this
  /// call (the change in BsrWorkspace::stats): a warm step on an unchanged
  /// bond topology has symbolic_builds == 0.
  std::size_t symbolic_builds = 0;
  std::size_t numeric_reuses = 0;
  /// Bond-table topology stamp (what the pattern cache is keyed on).
  std::uint64_t topology = 0;
  /// Effective block-row domain count (1 = unsharded).
  std::size_t domains = 0;
  /// Exact Gershgorin refreshes of the cached spectral bounds
  /// (cache_spectral_bounds; 0 on a drift-widened warm step).
  std::size_t bounds_refreshed = 0;
  /// Spectral enclosure handed to the purifier (cache_spectral_bounds).
  linalg::SpectralBounds spectral_bounds{};
  /// Heap bytes reserved by the BSR scratch workspace.  It includes the
  /// per-thread SpMM accumulators, so unlike the counters above it grows
  /// with the OpenMP team size.
  std::size_t workspace_bytes = 0;

  [[nodiscard]] double phase_seconds(Phase phase) const {
    return seconds[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] double total_seconds() const {
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum;
  }
};

/// RAII guard that adds the wall time of its scope to one phase of a
/// StepReport.
class PhaseTimer {
 public:
  PhaseTimer(StepReport& report, Phase phase)
      : slot_(&report.seconds[static_cast<std::size_t>(phase)]) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { *slot_ += timer_.seconds(); }

 private:
  double* slot_;
  WallTimer timer_;
};

/// Abstract potential-energy surface.
///
/// Implementations: TightBindingCalculator (exact diagonalization),
/// OrderNCalculator (density-matrix purification), TersoffCalculator and
/// LennardJonesCalculator (classical baselines).
class Calculator {
 public:
  virtual ~Calculator() = default;

  /// Evaluate energy and forces for the current positions of `system`.
  ///
  /// Implementations own their neighbor lists and reuse them across calls
  /// (Verlet-skin), so repeated calls during MD are cheap to set up.
  virtual ForceResult compute(const System& system) = 0;

  /// Human-readable model name for logs and benchmark tables.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Phase times and work counts of the most recent compute() call.
  [[nodiscard]] const StepReport& step_report() const { return report_; }

 protected:
  /// Reset to StepReport{} at the start of every compute() and filled by
  /// it (phases through PhaseTimer).
  StepReport report_;
};

}  // namespace tbmd
