#pragma once

/// \file purification.hpp
/// \brief Density-matrix purification: canonical Palser-Manolopoulos and
/// SP2.
///
/// The O(N) alternative to exact diagonalization: starting from a linear
/// map of H whose spectrum lies in [0, 1] and whose trace equals the number
/// of occupied states, iterate trace-conserving McWeeny-type polynomials
/// until the density matrix is idempotent.  With threshold truncation the
/// cost per iteration is O(N) for gapped systems — this is the method the
/// TBMD community adopted to break the O(N^3) wall that the paper's
/// evaluation section quantifies.
///
/// The iteration runs on the blocked-sparse substrate (BlockSparseMatrix,
/// one tile per atom pair: 4x4 for sp models, mixed 1/4/9 tiles for
/// multi-species s/sp/spd models) in symmetric-half storage:
/// H, P and every polynomial of P are symmetric, so only upper-half tiles
/// are stored and multiplied (multiply_sym_into).  Each multiply's symbolic
/// phase is cached in the workspace PatternCache keyed on operand-pattern
/// fingerprints: along an MD trajectory the bond topology is unchanged on
/// almost every step, so steady-state steps re-run only the numeric phase
/// on frozen patterns (bit-identical to a cold run).
///
/// Both methods share one iteration driver: seeding from the spectral
/// bounds, the drop schedule, the fp32 phase with its promotion triggers,
/// fp64 convergence/stagnation and the density hand-back.  A method only
/// chooses its seed map and its polynomial update.  OrderNCalculator runs
/// canonical PM; SP2 is library API (exp_a1's purifier ablation).

#include <cstdint>

#include "src/core/numerics_spec.hpp"
#include "src/linalg/spectral_bounds.hpp"
#include "src/onx/block_sparse.hpp"

namespace tbmd::onx {

/// Options for the purification loop.  The numerics policy (drop
/// tolerance, truncation schedule, precision mode and promotion) is the
/// inherited NumericsSpec -- shared verbatim with CalculatorSpec and the
/// JobSpec/CLI layers, and spelled the historical way
/// (`options.drop_tolerance`, `options.drop_at(it)`) at every existing
/// call site.  The fields below are loop controls that only the
/// purification routines themselves consume.
struct PurificationOptions : NumericsSpec {
  /// Converged when tr(P - P^2) / N falls below this.
  double idempotency_tolerance = 1e-10;
  int max_iterations = 100;

  /// Optional caller-supplied spectral enclosure of H.  When `have_bounds`
  /// is set the driver seeds from `bounds` instead of running its own
  /// Gershgorin pass -- callers that purify a slowly changing H repeatedly
  /// (OrderNCalculator's cached-bounds mode) hoist the O(nnz) estimate out
  /// of the loop.  The interval must enclose the true spectrum; a wider
  /// interval only flattens the initial seed's slope, it never breaks
  /// correctness.
  bool have_bounds = false;
  linalg::SpectralBounds bounds{};
};

/// What flipped a mixed-precision run from fp32 to fp64 tiles.
enum class PromotionTrigger : std::uint8_t {
  kNone,       ///< ran fp64 throughout (fp64 mode, or promote_iteration=1)
  kThreshold,  ///< idempotency error per state fell below promote_threshold
  kIteration,  ///< promote_iteration cap reached
  kStagnation, ///< a convergence/stagnation criterion fired on fp32 tiles
               ///< (promotion instead of convergence: fp32 never converges)
};

/// Per-run precision accounting of the mixed-precision loop (reported in
/// PurificationResult::numerics).
struct NumericsStats {
  int fp32_iterations = 0;  ///< iterations whose SpMMs ran on fp32 tiles
  int fp64_iterations = 0;  ///< iterations whose SpMMs ran on fp64 tiles
  /// 1-based iteration whose end promoted the density matrix to fp64
  /// (0 = no promotion happened: pure-fp64 run, or fp32 exhausted
  /// max_iterations).
  int promoted_at = 0;
  PromotionTrigger trigger = PromotionTrigger::kNone;
};

/// Result of a purification run.
struct PurificationResult {
  /// Spinless P on the blocked substrate (eigenvalues in [0,1],
  /// tr = n_occ).
  BlockSparseMatrix density;
  double band_energy = 0.0;      ///< 2 tr(P H)  (spin degeneracy)
  int iterations = 0;
  bool converged = false;
  double idempotency_error = 0.0;  ///< final tr(P - P^2)
  double fill_fraction = 0.0;      ///< logical nnz(P) / N^2
  /// fp32/fp64 iteration split and promotion trigger (mixed mode; all
  /// zeros in fp64 mode except fp64_iterations).
  NumericsStats numerics;
};

/// Cross-step cache of the SpMM symbolic phases of a purification run,
/// indexed by multiply order within the run (first P*P, first P^2*P, ...):
/// successive runs on an unchanged bond topology walk the same pattern
/// sequence, so every multiply validates against its recorded operand
/// fingerprints and reuses the frozen output pattern.  The owner (e.g.
/// OrderNCalculator) stamps the cache with the BondTable topology version;
/// a topology change — neighbor-list rebuild, a bond crossing the hopping
/// cutoff, an atom-count change — drops every entry.  Entries that fail
/// fingerprint validation are rebuilt in place, so reuse is always safe;
/// the stamp only bounds cache growth and makes invalidation eager.
struct PatternCache {
  std::vector<BsrPattern> entries;
  std::size_t cursor = 0;       ///< next entry of the current run
  std::uint64_t topology = 0;   ///< BondTable stamp the entries belong to
  bool stamped = false;

  /// Adopt a topology stamp, dropping all entries when it changed.
  void set_topology(std::uint64_t version) {
    if (!stamped || version != topology) invalidate();
    topology = version;
    stamped = true;
  }
  void invalidate() {
    entries.clear();
    cursor = 0;
  }
  void begin_run() { cursor = 0; }
  /// Entry for the next multiply of the run (appended on first use).
  [[nodiscard]] BsrPattern* next() {
    if (cursor == entries.size()) entries.emplace_back();
    return &entries[cursor++];
  }
};

/// Persistent buffers for the purification loop.  A calculator that owns
/// one across MD steps keeps every intermediate (P^2, P^3, staging rows)
/// at steady-state capacity, so the per-step loop performs no allocation
/// beyond the density matrix handed back in the result.
struct PurificationWorkspace {
  BlockSparseMatrix p, p2, p3, tmp;
  /// Identity operand of the initial linear map, rebuilt only when the
  /// problem size or block size changes.
  BlockSparseMatrix eye;
  BsrWorkspace scratch;
  /// Frozen symbolic SpMM patterns reused across runs (see PatternCache).
  PatternCache patterns;
};

/// Canonical Palser-Manolopoulos purification of the blocked Hamiltonian
/// `h` with `n_occupied` doubly-occupied states.
///
/// Converges for systems with a HOMO-LUMO gap; metallic spectra stall (the
/// result reports converged = false).  `workspace` is optional; passing a
/// persistent one eliminates per-call allocation and enables cross-run
/// pattern reuse.
[[nodiscard]] PurificationResult palser_manolopoulos(
    const BlockSparseMatrix& h, int n_occupied,
    const PurificationOptions& options = {},
    PurificationWorkspace* workspace = nullptr);

/// SP2 (second-order spectral projection) purification, the
/// trace-correcting alternative to Palser-Manolopoulos: starting from a
/// linear map of H with spectrum in [0, 1], repeatedly apply X^2 or
/// 2X - X^2, choosing whichever moves the trace towards the occupation
/// count.  Each iteration needs ONE sparse multiply (PM needs two), at the
/// cost of more iterations -- an ablation axis exp_a1 measures.  Options,
/// result and workspace semantics match palser_manolopoulos().
[[nodiscard]] PurificationResult sp2_purification(
    const BlockSparseMatrix& h, int n_occupied,
    const PurificationOptions& options = {},
    PurificationWorkspace* workspace = nullptr);

}  // namespace tbmd::onx
