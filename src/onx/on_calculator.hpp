#pragma once

/// \file on_calculator.hpp
/// \brief O(N) tight-binding calculator: blocked-sparse Hamiltonian +
/// canonical Palser-Manolopoulos purification instead of O(N^3)
/// diagonalization.

#include "src/core/calculator.hpp"
#include "src/core/calculator_spec.hpp"
#include "src/core/health_spec.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/block_sparse.hpp"
#include "src/onx/purification.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/tb_model.hpp"

namespace tbmd::onx {

/// Assemble the Hamiltonian directly in symmetric-half block-CSR form
/// (one orbs(i) x orbs(j) tile per atom pair with j >= i: uniform 4x4 for
/// the sp models, mixed 1/4/9 tiles for multi-species models) from
/// a prebuilt bond table -- the
/// bond table's hopping blocks ARE the BSR tiles, so assembly is a scatter
/// with no per-element index bookkeeping, and because half pairs are
/// stored with i < j, no tile is ever transposed on the way in.  `out` and
/// `ws` are reused across calls.
void build_block_hamiltonian(const tb::TbModel& model, const System& system,
                             const tb::BondTable& table,
                             BlockSparseMatrix& out, BsrWorkspace& ws);

/// Convenience overload returning by value.
[[nodiscard]] BlockSparseMatrix build_block_hamiltonian(
    const tb::TbModel& model, const System& system,
    const tb::BondTable& table);

/// Hellmann-Feynman band forces from the blocked (spinless) density
/// matrix P (the contraction uses rho = 2 P), contracted against the bond
/// table's derivative blocks with one tile lookup per bond.  P must carry
/// one block row per atom with the table's orbital counts, as produced by
/// the purification engine for TB Hamiltonians.  When `virial` is non-null
/// the band virial is accumulated into it.
[[nodiscard]] std::vector<Vec3> band_forces_sparse(const tb::BondTable& table,
                                                   const BlockSparseMatrix& p,
                                                   Mat3* virial = nullptr);

/// Linear-scaling TBMD calculator (Palser-Manolopoulos purification).
///
/// Valid for gapped systems (diamond C/Si, molecules).  Reads the spec's
/// `skin` and O(N) fields (numerics, reuse_patterns, domains,
/// cache_spectral_bounds, bond_reuse_skin, health).  Diagnostics come in
/// three parts: step_report() holds the last call's phase times and work
/// counts (SpMM symbolic builds and numeric reuses, bond-table topology
/// stamp, domain count, spectral-bounds refreshes and the interval handed
/// to the purifier, workspace bytes); last_purification() is the last
/// purifier run's own result; recovery_stats() accumulates across calls.
class OrderNCalculator final : public Calculator {
 public:
  /// Throws tbmd::Error when `spec.mode` names the exact engine or
  /// `spec.electronic_temperature` is not 0: the canonical purification
  /// fills an integer number of states, so a smeared-occupation request
  /// must not be silently downgraded to T_el = 0.
  OrderNCalculator(tb::TbModel model,
                   CalculatorSpec spec = CalculatorSpec::order_n());

  ForceResult compute(const System& system) override;

  [[nodiscard]] std::string name() const override {
    return "tb-on[" + model_.name + "]";
  }

  /// Diagnostics of the most recent purification (iterations, fill, and
  /// in `numerics` the fp32/fp64 iteration split and promotion trigger).
  [[nodiscard]] const PurificationResult& last_purification() const {
    return last_;
  }

  /// Guardrail/recovery accounting, cumulative across compute() calls.
  /// With health off only `unconverged_steps` and `last_failure` move (the
  /// satellite counter for silently-unconverged densities); with health on
  /// the per-rung counters record which ladder steps ran.
  struct RecoveryStats {
    /// Health off: steps whose purification reported converged = false and
    /// whose density was used anyway (counted + logged, never silent).
    std::size_t unconverged_steps = 0;
    std::size_t fp64_retries = 0;      ///< rung (a) attempts
    std::size_t tighten_retries = 0;   ///< rung (b) attempts
    std::size_t exact_fallbacks = 0;   ///< rung (c) attempts
    std::size_t failures = 0;          ///< rung (d): NumericsError thrown
    FailureClass last_failure = FailureClass::kNone;
  };
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  [[nodiscard]] const tb::TbModel& model() const { return model_; }

 private:
  /// Spectral enclosure for this step's purification (exact on a
  /// topology/pattern change or excessive drift, widened otherwise).
  [[nodiscard]] linalg::SpectralBounds step_spectral_bounds();

  /// Rung (c): exact-diagonalization density for the current Hamiltonian,
  /// packaged as a PurificationResult so the force contraction and energy
  /// bookkeeping downstream are rung-agnostic.
  [[nodiscard]] PurificationResult exact_step_density(const System& system,
                                                      int n_occupied) const;

  tb::TbModel model_;
  CalculatorSpec spec_;
  NeighborList list_;
  /// Per-step shared SK block/derivative table (storage reused per step).
  tb::BondTable table_;
  /// Persistent blocked Hamiltonian + purification buffers: every BSR
  /// intermediate keeps its steady-state capacity across MD steps, so the
  /// O(N) step performs no allocation once the pattern has stabilized.
  BlockSparseMatrix hamiltonian_;
  PurificationWorkspace workspace_;
  PurificationResult last_;
  /// Atom count of the previous compute(): a shrink triggers
  /// BsrWorkspace::shrink so the workspace footprint tracks the current
  /// system instead of the historical maximum.
  std::size_t last_atoms_ = 0;

  RecoveryStats recovery_stats_;

  /// cache_spectral_bounds state: the exact enclosure at the last refresh,
  /// the H values it was computed from (drift reference), and the pattern
  /// fingerprint + topology stamp they belong to.
  linalg::SpectralBounds cached_bounds_{};
  std::vector<double> h_ref_;
  std::uint64_t bounds_topology_ = 0;
  std::uint64_t bounds_fingerprint_ = 0;
  bool bounds_valid_ = false;
};

}  // namespace tbmd::onx
