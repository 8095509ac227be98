#pragma once

/// \file block_sparse.hpp
/// \brief Block-CSR (BSR) sparse matrix with dense square tiles.
///
/// The substrate of the O(N) purification engine.  A tight-binding
/// Hamiltonian over s/p orbitals is naturally blocked: every atom pair
/// couples through a dense 4x4 Slater-Koster block, so storing the matrix
/// as scalar CSR pays an index + branch per *element* where one index per
/// *tile* suffices.  BlockSparseMatrix stores, per block row, the sorted
/// block-column indices and a dense bs x bs row-major tile each; the SpMM
/// inner product of two tiles dispatches to the shared
/// linalg::gemm_micro_add_t micro-kernel (fully unrolled for bs == 4).
///
/// Symmetric-half storage.  Every operand of the purification loop (H, P
/// and its polynomials) is symmetric, so the matrix stores only the upper
/// block triangle: tiles (I, J) with J >= I, the mirror tile
/// A_JI == A_IJ^T implicit.  That halves memory and -- because the product
/// of two commuting symmetric matrices is symmetric -- halves the SpMM
/// flops: multiply_sym_into() computes only the upper half of C = A * B,
/// reading lower-half operand tiles through the transposed micro-kernel
/// (linalg::gemm_micro_add_t).  This is the only storage mode.
///
/// Pattern reuse.  multiply_sym_into() is split into a symbolic phase
/// (Gustavson discovery of the output block pattern -- no flops) and a
/// numeric phase (tile products + truncation on a known pattern).  The
/// symbolic result can be cached in a BsrPattern keyed on fingerprints of
/// the operand patterns: along an MD trajectory the bond topology -- and
/// with it the whole chain of purification patterns -- is unchanged on the
/// vast majority of steps, so steady-state steps re-run only the numeric
/// phase on the frozen pattern.  Cold and warm paths execute the identical
/// numeric sweep, so a warm result is bit-identical to a cold one.
///
/// Threshold truncation acts on whole tiles: a tile is dropped when its
/// Frobenius norm satisfies ||T||_F <= bs * tol, i.e. when its RMS entry
/// is below the tolerance (diagonal tiles are always kept so traces stay
/// exact).  Discarding such a tile perturbs the matrix by no more than the
/// bs^2 scalar entries of magnitude tol the element-wise criterion already
/// tolerates dropping; the criterion reduces to |v| > tol exactly at
/// bs == 1.  The Frobenius criterion is itself symmetric
/// (||A_IJ||_F == ||A_JI^T||_F), so dropping a stored tile drops its
/// implicit mirror with it: symmetry of the pattern is structural.
///
/// Block size is a runtime parameter: bs == 4 is the production path for
/// the sp models, and bs == 1 degenerates to scalar-granular tiles.
///
/// Variable-block-row mode.  Multi-species models carry a per-atom orbital
/// count (1 for s-only, 4 for sp, 9 for spd), so the natural tiling has
/// per-block-row dimensions: tile (I, J) is dims[I] x dims[J].  Matrices
/// built from a dims vector store the per-row dims, the scalar row offsets
/// and a per-tile value offset table; block_size() reports 0 in this mode
/// and the micro-kernel dispatch falls through to the rectangular fallback
/// (linalg::gemm_micro_add_rect).  A dims vector whose entries all agree is
/// normalized to uniform mode on construction, so homogeneous systems --
/// carbon, silicon -- always run the unrolled uniform fast paths and their
/// results are unchanged by the generalization.  Every operation has one
/// body over both layouts, addressing rows through row_dim()/row_offset()
/// and tiles through a per-tile offset (bs^2 * k uniform, a stored table
/// otherwise).  The truncation criterion is ||T||_F <= sqrt(dims[I] *
/// dims[J]) * tol, the same RMS-entry rule; for square tiles the scale is
/// exactly bs, so both layouts share the one test bit-for-bit.
///
/// Tile precision.  Payloads are fp64 or fp32 (TilePrecision); the
/// assemble / combine / SpMM bodies are templates over the tile scalar and
/// each public entry point dispatches once on precision().  Only the tile
/// product itself is specialized: fp64 tiles run the linalg kernels above,
/// fp32 tiles the lane-vector kernel family (linalg::gemm_micro_add_t_f32
/// and its bs == 4 sweep), whose results equal the generic reference loop
/// bit-for-bit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/linalg/spectral_bounds.hpp"

namespace tbmd::onx {

class BlockSparseMatrix;

/// Scalar type of a BlockSparseMatrix's tile payloads.  kF64 is the
/// default and the only mode most operations accept; kF32 is the
/// mixed-precision purification substrate -- half the memory traffic in
/// the bandwidth-bound SpMM numeric phase -- and supports exactly the
/// operations the purification loop's fp32 phase needs (multiply_sym_into,
/// combine_into, trace, get, to_dense via conversion), each through the
/// same template body as fp64.  The structure (pattern, dims, fingerprints)
/// is precision-independent, so the symbolic-pattern cache works unchanged
/// across a promotion.
enum class TilePrecision : std::uint8_t { kF64, kF32 };

/// Cached symbolic SpMM result for multiply_sym_into(): the frozen output
/// block pattern of C = A * B, keyed on fingerprints of both operand
/// patterns.  A call whose operands still carry the recorded fingerprints
/// skips the symbolic phase entirely and runs the numeric sweep on the
/// frozen pattern; any operand-pattern change falls back to a symbolic
/// rebuild (refreshing the entry), so reuse never changes results.
struct BsrPattern {
  std::uint64_t a_fingerprint = 0;
  std::uint64_t b_fingerprint = 0;
  std::vector<std::size_t> row_ptr;    ///< nb + 1 output block-row offsets
  std::vector<std::uint32_t> cols;     ///< output block columns (sorted)
  bool valid = false;
};

/// Reusable scratch for BlockSparseMatrix::multiply_sym_into / combine_into:
/// per-block-row staging buffers plus the per-thread Gustavson
/// accumulators of the SpMM, all with capacity that survives across
/// calls, so a persistent workspace (e.g. owned by OrderNCalculator)
/// makes the purification loop allocation-free in steady state.  Capacity
/// only grows: the workspace stays sized for the largest system it has
/// processed.
struct BsrWorkspace {
  std::vector<std::vector<std::uint32_t>> row_cols;
  std::vector<std::vector<double>> row_vals;
  /// fp32 staging rows (kF32 operations stage here; empty in fp64 runs).
  std::vector<std::vector<float>> row_vals32;
  // Per-thread SpMM scratch (indexed by omp thread id).  The row sweep
  // restores acc/hit to all-zeroes after every block row, so these only
  // need zero-filling when they grow.
  std::vector<std::vector<double>> acc;
  /// fp32 accumulators for kF32 operands (same all-zero invariant).
  std::vector<std::vector<float>> acc32;
  std::vector<std::vector<std::uint8_t>> hit;
  std::vector<std::vector<std::uint32_t>> touched;

  /// Mirror-expanded adjacency of a half-stored operand (the full set of
  /// block neighbors per block row, each entry pointing at the stored
  /// upper-half tile plus a transpose flag).  Rebuilt per multiply_sym_into
  /// call in O(stored tiles); two slots cover the C = A * B case.
  struct SymAdjacency {
    std::vector<std::size_t> ptr;      ///< nb + 1 row offsets
    std::vector<std::uint32_t> col;    ///< neighbor block column (sorted)
    std::vector<std::uint32_t> tile;   ///< stored-tile index in the operand
    std::vector<std::uint8_t> trans;   ///< 1: tile is the transposed mirror
    std::vector<std::size_t> fill;     ///< per-row build cursors (scratch)
  };
  SymAdjacency adj_a, adj_b;

  /// Symbolic-vs-numeric SpMM accounting (cumulative): a steady-state MD
  /// step must be all `numeric_reuses` -- the CI/tests assert warm steps
  /// perform zero symbolic-phase work through these counters.
  struct SpmmStats {
    std::size_t symbolic_builds = 0;  ///< Gustavson pattern discoveries
    std::size_t numeric_reuses = 0;   ///< frozen-pattern numeric-only runs
  };
  SpmmStats stats;

  /// Optional contiguous block-row domain decomposition: when non-empty it
  /// must be a monotone chunk list {0, ..., nb} and the SpMM / assembly
  /// row sweeps iterate domain-by-domain with a `schedule(static, 1)`
  /// round-robin (stable thread -> domain ownership for cache/NUMA
  /// affinity) instead of the default dynamic row chunking.  Purely a
  /// scheduling hint: per-row results are unchanged, so outputs stay
  /// bit-identical with or without domains at any thread count.  Owners
  /// (OrderNCalculator) refresh it per step from par::even_domains.
  std::vector<std::size_t> domains;

  /// Heap bytes currently reserved by every buffer (capacity, not size);
  /// StepReport::workspace_bytes reports it.
  [[nodiscard]] std::size_t footprint_bytes() const;
};

/// Square symmetric block-CSR sparse matrix (block columns sorted within
/// each block row; tiles stored dense, row-major).  Only tiles (I, J) with
/// J >= I are stored; the mirror A_JI = A_IJ^T is implicit.
class BlockSparseMatrix {
 public:
  BlockSparseMatrix() = default;

  /// n x n zero matrix with bs x bs tiles; bs must divide n.
  BlockSparseMatrix(std::size_t n, std::size_t block_size);

  /// Zero matrix with per-block-row tile dimensions (tile (I, J) is
  /// dims[I] x dims[J]).  A dims vector whose entries all agree is
  /// normalized to uniform mode, so homogeneous layouts keep the unrolled
  /// fast paths.
  explicit BlockSparseMatrix(const std::vector<std::uint32_t>& dims);

  /// Identity (diagonal tiles only).
  [[nodiscard]] static BlockSparseMatrix identity(std::size_t n,
                                                  std::size_t block_size);

  /// Identity on a variable block layout.
  [[nodiscard]] static BlockSparseMatrix identity(
      const std::vector<std::uint32_t>& dims);

  /// Identity sharing `like`'s dimension and block layout -- what the
  /// purification workspaces rebuild their cached I from when the operand
  /// layout changes.
  [[nodiscard]] static BlockSparseMatrix identity_like(
      const BlockSparseMatrix& like);

  /// Empty (all-zero) matrix sharing `like`'s dimension and block layout.
  [[nodiscard]] static BlockSparseMatrix zeros_like(
      const BlockSparseMatrix& like);

  /// Convert from a dense symmetric matrix: the upper block triangle of `a`
  /// is tiled, dropping tiles with Frobenius norm <= drop_tolerance
  /// (diagonal tiles with any nonzero entry are kept).  The lower triangle
  /// is not read; the caller asserts A == A^T.
  [[nodiscard]] static BlockSparseMatrix from_dense(const linalg::Matrix& a,
                                                    std::size_t block_size,
                                                    double drop_tolerance = 0.0);

  /// from_dense() on a variable block layout.
  [[nodiscard]] static BlockSparseMatrix from_dense(
      const linalg::Matrix& a, const std::vector<std::uint32_t>& dims,
      double drop_tolerance = 0.0);

  /// Dense copy with the implicit mirrors written out.
  [[nodiscard]] linalg::Matrix to_dense() const;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Uniform tile edge; 0 in variable-block-row mode (query row_dim()
  /// there).
  [[nodiscard]] std::size_t block_size() const { return bs_; }
  [[nodiscard]] std::size_t block_rows() const { return nb_; }

  /// All block rows share one tile edge (bs_ is meaningful)?
  [[nodiscard]] bool uniform_blocks() const { return dims_.empty(); }

  /// Widest tile edge (== block_size() in uniform mode) -- what per-tile
  /// scratch must be sized for.
  [[nodiscard]] std::size_t max_block_size() const { return max_bs_; }

  /// Tile edge of block row `bi`.
  [[nodiscard]] std::size_t row_dim(std::size_t bi) const {
    return dims_.empty() ? bs_ : dims_[bi];
  }

  /// First scalar row of block row `bi`.
  [[nodiscard]] std::size_t row_offset(std::size_t bi) const {
    return dims_.empty() ? bs_ * bi : offs_[bi];
  }

  /// Per-row tile dims (empty in uniform mode).
  [[nodiscard]] const std::vector<std::uint32_t>& block_dims() const {
    return dims_;
  }

  /// Same dimension and block layout as `b` (tiles line up entrywise)?
  [[nodiscard]] bool layout_matches(const BlockSparseMatrix& b) const {
    return n_ == b.n_ && bs_ == b.bs_ && dims_ == b.dims_;
  }

  /// Stored tiles (the upper triangle only).
  [[nodiscard]] std::size_t block_count() const { return col_.size(); }

  /// Logical tiles: stored tiles plus their implicit mirrors.
  [[nodiscard]] std::size_t logical_block_count() const;

  /// Scalar type of the tile payloads (kF64 unless this matrix was
  /// converted or assembled by a kF32 sweep).
  [[nodiscard]] TilePrecision precision() const { return prec_; }

  /// Convert the tile payloads in place (structure and fingerprint are
  /// untouched).  kF64 -> kF32 rounds to nearest (lossy by design: the
  /// mixed-precision loop runs it only where the drop schedule already
  /// tolerates ~1e-4 error); kF32 -> kF64 is exact.  Both directions keep
  /// the retired payload vector's capacity, so a steady-state mixed
  /// purification loop converts without allocating.
  void convert_precision(TilePrecision p);

  /// Copying variant of convert_precision.
  [[nodiscard]] BlockSparseMatrix to_precision(TilePrecision p) const;

  /// Stored scalar entries (tiles are dense; block_count * bs^2 in uniform
  /// mode, the sum of the per-tile areas otherwise).
  [[nodiscard]] std::size_t nnz() const {
    return prec_ == TilePrecision::kF32 ? val32_.size() : val_.size();
  }

  /// Logical scalar entries: stored tile areas plus the implicit mirrors.
  [[nodiscard]] std::size_t logical_nnz() const;

  /// Fraction of *logical* entries relative to a dense matrix (each
  /// off-diagonal tile counts once per side).
  [[nodiscard]] double fill_fraction() const {
    return n_ == 0 ? 0.0
                   : static_cast<double>(logical_nnz()) /
                         (static_cast<double>(n_) * static_cast<double>(n_));
  }

  /// Fingerprint of the block pattern (FNV-1a over dimensions, row
  /// offsets and column indices) -- the key the BsrPattern cache
  /// validates against.  Recomputed whenever the structure is rebuilt.
  [[nodiscard]] std::uint64_t pattern_fingerprint() const {
    return pattern_fingerprint_;
  }

  /// Tile (bi, bj) (binary search within the block row); nullptr if
  /// absent.  Only bj >= bi is stored: mirrored positions return
  /// nullptr -- fetch the stored (bj, bi) tile and transpose, as get()
  /// does, or keep queries in the upper triangle (the bond table's half
  /// pairs always have i < j, so the force contraction needs no mirror).
  [[nodiscard]] const double* find_block(std::size_t bi, std::size_t bj) const;

  /// Scalar element lookup (mirror-aware); 0 for absent entries.
  [[nodiscard]] double get(std::size_t i, std::size_t j) const;

  /// Sum of diagonal entries.
  [[nodiscard]] double trace() const;

  /// tr(A * B); both must have the same size and block layout.  A single
  /// upper-half pass with 2x weight on off-diagonal tiles:
  /// tr(A_IJ B_JI) + tr(A_JI B_IJ) collapses to twice the elementwise tile
  /// dot product when the mirrors are implicit transposes.
  [[nodiscard]] double trace_of_product(const BlockSparseMatrix& b) const;

  /// Linear combination alpha*this + beta*b (block-pattern union), dropping
  /// tiles with Frobenius norm <= drop_tolerance (diagonal tiles kept).
  [[nodiscard]] BlockSparseMatrix combine(double alpha,
                                          const BlockSparseMatrix& b,
                                          double beta,
                                          double drop_tolerance = 0.0) const;

  /// combine() writing into `out`, reusing its storage and `ws`.  Operands
  /// must share the tile precision; the result inherits it (kF32 combines
  /// each entry in fp64 and rounds it once on store).
  void combine_into(double alpha, const BlockSparseMatrix& b, double beta,
                    double drop_tolerance, BlockSparseMatrix& out,
                    BsrWorkspace& ws) const;

  /// Symmetric product C = this * b with tile-level Frobenius truncation
  /// (this and b must commute so that C is symmetric -- true for the
  /// purification polynomials, which are all polynomials of the same H).  Gustavson
  /// row-merge over block rows, OpenMP-parallel; only the upper block
  /// triangle of C is computed, with mirrored operand tiles read through
  /// the transposed micro-kernel.  When `pattern` is non-null the symbolic
  /// phase is skipped whenever the operands still match the recorded
  /// fingerprints (ws.stats counts both outcomes); the numeric sweep is
  /// identical either way, so warm results are bit-identical to cold ones.
  ///
  /// Precision: operands must share the tile precision and the result
  /// inherits it.  Both precisions share the symbolic phase (patterns are
  /// structure-only); kF32 runs the numeric phase on the fp32 kernel
  /// family, with fp32 accumulators and fp64 truncation thresholds.
  void multiply_sym_into(const BlockSparseMatrix& b, double drop_tolerance,
                         BlockSparseMatrix& out, BsrWorkspace& ws,
                         BsrPattern* pattern = nullptr) const;

  /// Gershgorin enclosure of the spectrum (shared linalg interval type).
  [[nodiscard]] linalg::SpectralBounds gershgorin_bounds() const;

  // Raw BSR access (read-only) for kernels that stream the structure.
  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cols() const { return col_; }
  [[nodiscard]] const std::vector<double>& values() const { return val_; }

  /// Mutable tile payloads (kF64 storage).  For in-place value edits that
  /// keep the structure -- the fault-injection hooks poison single entries
  /// through this; the pattern, fingerprint and precision are untouched.
  [[nodiscard]] std::vector<double>& values_mutable() { return val_; }

  /// Tile payload of the k-th stored block (row-major; row_dim(I) x
  /// row_dim(J) doubles for a tile in block row I, column J).  kF64 only.
  [[nodiscard]] const double* block(std::size_t k) const {
    return val_.data() + tile_offset(k);
  }

  /// fp32 payload vector (empty unless precision() == kF32).
  [[nodiscard]] const std::vector<float>& values_f32() const { return val32_; }

  /// fp32 tile payload of the k-th stored block (kF32 matrices only).
  [[nodiscard]] const float* block_f32(std::size_t k) const {
    return val32_.data() + tile_offset(k);
  }

 private:
  friend void bsr_assemble(const std::vector<std::uint32_t>& dims,
                           BsrWorkspace& ws, BlockSparseMatrix& out);

  /// Recompute pattern_fingerprint_ from the current structure; every
  /// builder calls this exactly once after the pattern is final.
  void refingerprint();

  /// Adopt a block layout (dimension, tile dims, row offsets; tiles
  /// untouched): n x n with bs x bs tiles when `dims` is empty,
  /// else the per-row `dims`, normalized to uniform when all agree.
  void set_layout(std::size_t n, std::size_t bs,
                  const std::vector<std::uint32_t>& dims);

  /// Rebuild the per-tile value offsets from row_ptr_ / col_ (variable
  /// mode; uniform tiles sit at bs^2 * k and need no table).
  void index_tiles();

  /// Offset of the k-th stored tile in the payload vector.
  [[nodiscard]] std::size_t tile_offset(std::size_t k) const {
    return dims_.empty() ? bs_ * bs_ * k : val_ptr_[k];
  }

  /// from_dense() body: tile the upper block triangle of the square dense
  /// `a` onto this (empty) layout.
  void fill_from_dense(const linalg::Matrix& a, double drop_tolerance);

  /// Block row containing scalar row `i`.
  [[nodiscard]] std::size_t block_index_of(std::size_t i) const;

  /// Stored-tile index of tile (bi, bj), or npos if absent (the
  /// precision-agnostic core of find_block; fp32 readers pair it with
  /// block_f32).
  [[nodiscard]] std::size_t find_block_index(std::size_t bi,
                                             std::size_t bj) const;

  // One body per operation, templated on the tile scalar (double / float).
  // Defined in block_sparse.cpp, the only place they are instantiated.
  template <typename T>
  [[nodiscard]] std::vector<T>& payload();
  template <typename T>
  [[nodiscard]] const T* tile_data(std::size_t k) const;
  /// Set the structure and T payloads from the staging rows of `ws`
  /// (layout already set; clears the other precision's payloads).
  template <typename T>
  void assemble(BsrWorkspace& ws);
  template <typename T>
  void combine_tiles(double alpha, const BlockSparseMatrix& b, double beta,
                     double drop_tolerance, BlockSparseMatrix& out,
                     BsrWorkspace& ws) const;
  template <typename T>
  void multiply_sym_tiles(const BlockSparseMatrix& b, double drop_tolerance,
                          BlockSparseMatrix& out, BsrWorkspace& ws,
                          BsrPattern* pattern) const;

  std::size_t n_ = 0;       ///< scalar dimension
  std::size_t bs_ = 1;      ///< uniform tile edge (0: variable mode)
  std::size_t max_bs_ = 1;  ///< widest tile edge (== bs_ when uniform)
  std::size_t nb_ = 0;      ///< block rows
  std::vector<std::size_t> row_ptr_;   ///< nb + 1 block-row offsets
  std::vector<std::uint32_t> col_;     ///< block-column index per tile
  std::vector<double> val_;            ///< dense row-major tile payloads
  std::vector<float> val32_;           ///< fp32 payloads (kF32 mode)
  TilePrecision prec_ = TilePrecision::kF64;
  std::vector<std::uint32_t> dims_;    ///< per-row tile dims (empty: uniform)
  std::vector<std::size_t> offs_;      ///< nb + 1 scalar row offsets (var)
  std::vector<std::size_t> val_ptr_;   ///< per-tile value offsets (var)
  std::uint64_t pattern_fingerprint_ = 0;
};

/// Direct mutable access for assembly code (onx Hamiltonian builder): set
/// the structure in one shot from per-row staging buffers in `ws`.  Row I
/// stages only columns J >= I; tile (I, J) is dims[I] x dims[J].  A dims
/// vector whose entries all agree yields the uniform layout, exactly as
/// the constructors normalize it.
void bsr_assemble(const std::vector<std::uint32_t>& dims, BsrWorkspace& ws,
                  BlockSparseMatrix& out);

}  // namespace tbmd::onx
