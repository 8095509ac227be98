#include "src/onx/block_sparse.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "src/linalg/blas.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::onx {

namespace {

/// find_block_index() result for an absent tile.
constexpr std::size_t kNoTile = static_cast<std::size_t>(-1);

/// Keep a rows x cols tile of squared Frobenius norm `norm2`?  A tile is
/// dropped when ||T||_F <= sqrt(rows * cols) * tol, i.e. when its RMS entry
/// is below the tolerance: the perturbation from discarding it is then no
/// larger than that of the rows * cols scalar entries of magnitude tol the
/// element-wise criterion already tolerates dropping.  For a square bs x bs
/// tile the scale is exactly bs (the IEEE square root of a perfect square
/// is exact), and the rule reduces to |v| > tol at bs == 1.  Diagonal tiles
/// with any nonzero entry are always kept, so traces stay exact.
inline bool keep_tile(double norm2, std::size_t rows, std::size_t cols,
                      double drop_tolerance, bool diagonal) {
  const double scaled =
      std::sqrt(static_cast<double>(rows * cols)) * drop_tolerance;
  return norm2 > scaled * scaled || (diagonal && norm2 > 0.0);
}

/// All entries equal (an all-equal dims vector normalizes to uniform mode)?
inline bool dims_uniform(const std::vector<std::uint32_t>& dims) {
  for (const std::uint32_t d : dims) {
    if (d != dims.front()) return false;
  }
  return true;
}

/// Staging rows of tile scalar T (the sweeps of each precision stage in
/// their own rows, so a mixed run never converts staged tiles).
template <typename T>
std::vector<std::vector<T>>& staging(BsrWorkspace& ws) {
  if constexpr (std::is_same_v<T, float>) {
    return ws.row_vals32;
  } else {
    return ws.row_vals;
  }
}

/// Per-thread SpMM accumulators of tile scalar T.
template <typename T>
std::vector<std::vector<T>>& accumulators(BsrWorkspace& ws) {
  if constexpr (std::is_same_v<T, float>) {
    return ws.acc32;
  } else {
    return ws.acc;
  }
}

/// Grow-and-clear the staging rows without releasing their capacity.
template <typename T>
void reset_workspace(BsrWorkspace& ws, std::size_t nb) {
  std::vector<std::vector<T>>& vals = staging<T>(ws);
  if (ws.row_cols.size() < nb) ws.row_cols.resize(nb);
  if (vals.size() < nb) vals.resize(nb);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    ws.row_cols[bi].clear();
    vals[bi].clear();
  }
}

/// tile = s * a over `sz` entries, rounded once to the tile scalar.
template <typename T>
inline void scale_tile(double s, const T* a, T* tile, std::size_t sz) {
  for (std::size_t q = 0; q < sz; ++q) {
    tile[q] = static_cast<T>(s * static_cast<double>(a[q]));
  }
}

/// tile = alpha * a + beta * b over `sz` entries.  fp64 tiles accumulate
/// in place (alpha * a, then += beta * b); fp32 tiles combine each entry in
/// fp64 and round once on store, so the update adds no error beyond the
/// storage rounding itself.
template <typename T>
inline void axpby_tile(double alpha, const T* a, double beta, const T* b,
                       T* tile, std::size_t sz) {
  if constexpr (std::is_same_v<T, double>) {
    scale_tile(alpha, a, tile, sz);
    for (std::size_t q = 0; q < sz; ++q) tile[q] += beta * b[q];
  } else {
    for (std::size_t q = 0; q < sz; ++q) {
      tile[q] = static_cast<T>(alpha * static_cast<double>(a[q]) +
                               beta * static_cast<double>(b[q]));
    }
  }
}

/// C += op(A) * op(B) for one m x k by k x n tile pair, the precision-
/// specialized step of the SpMM sweep: uniform layouts (m == k == n) run
/// the square kernels, variable layouts the rectangular dispatch; fp32
/// tiles take the lane-vector kernel family.
inline void tile_product(bool var, std::size_t m, std::size_t k,
                         std::size_t n, bool ta, bool tb, const double* a,
                         const double* b, double* c) {
  if (var) {
    linalg::gemm_micro_add_rect(m, k, n, ta, tb, a, b, c);
  } else {
    linalg::gemm_micro_add_t(m, ta, tb, a, b, c);
  }
}

inline void tile_product(bool var, std::size_t m, std::size_t k,
                         std::size_t n, bool ta, bool tb, const float* a,
                         const float* b, float* c) {
  if (var) {
    linalg::gemm_micro_add_rect_f32(m, k, n, ta, tb, a, b, c);
  } else {
    linalg::gemm_micro_add_t_f32(m, ta, tb, a, b, c);
  }
}

/// Mirror-expand the half pattern of `a` into a full per-row adjacency:
/// for every block row the sorted list of neighbors, each entry naming the
/// stored upper-half tile and whether it must be read transposed.  Two
/// passes keep each row sorted without a per-row sort: mirrored neighbors
/// (columns < row, ascending with the source-row scan) first, then the
/// stored row itself (columns >= row, already sorted).
void build_sym_adjacency(const BlockSparseMatrix& a,
                         BsrWorkspace::SymAdjacency& adj) {
  const auto& row_ptr = a.row_ptr();
  const auto& cols = a.cols();
  const std::size_t nb = a.block_rows();
  adj.ptr.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    adj.ptr[bi + 1] += row_ptr[bi + 1] - row_ptr[bi];
    for (std::size_t k = row_ptr[bi]; k < row_ptr[bi + 1]; ++k) {
      if (cols[k] != bi) ++adj.ptr[cols[k] + 1];
    }
  }
  for (std::size_t bi = 0; bi < nb; ++bi) adj.ptr[bi + 1] += adj.ptr[bi];
  const std::size_t total = adj.ptr[nb];
  adj.col.resize(total);
  adj.tile.resize(total);
  adj.trans.resize(total);
  adj.fill.assign(adj.ptr.begin(), adj.ptr.end() - 1);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t k = row_ptr[bi]; k < row_ptr[bi + 1]; ++k) {
      const std::size_t bj = cols[k];
      if (bj == bi) continue;
      const std::size_t slot = adj.fill[bj]++;
      adj.col[slot] = static_cast<std::uint32_t>(bi);
      adj.tile[slot] = static_cast<std::uint32_t>(k);
      adj.trans[slot] = 1;
    }
  }
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t k = row_ptr[bi]; k < row_ptr[bi + 1]; ++k) {
      const std::size_t slot = adj.fill[bi]++;
      adj.col[slot] = cols[k];
      adj.tile[slot] = static_cast<std::uint32_t>(k);
      adj.trans[slot] = 0;
    }
  }
}

/// First adjacency entry of row `bk` with column >= `bi` (the J >= I
/// restriction of the upper-half product sweep).
inline std::size_t adj_lower_bound(const BsrWorkspace::SymAdjacency& adj,
                                   std::size_t bk, std::size_t bi) {
  const auto begin = adj.col.begin() + static_cast<std::ptrdiff_t>(adj.ptr[bk]);
  const auto end =
      adj.col.begin() + static_cast<std::ptrdiff_t>(adj.ptr[bk + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(bi));
  return static_cast<std::size_t>(it - adj.col.begin());
}

}  // namespace

void BlockSparseMatrix::refingerprint() {
  // FNV-1a over the structural identity: any pattern or dimension change
  // yields a different fingerprint, so a stale BsrPattern can never
  // validate against a rebuilt operand.
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) {
      h ^= (v >> s) & 0xffu;
      h *= kPrime;
    }
  };
  mix(n_);
  mix(bs_);
  // Variable mode: the per-row dims are part of the structure (bs_ == 0
  // there, so a variable matrix can never collide with a uniform one; the
  // loop is empty in uniform mode and fingerprints are unchanged).
  for (const std::uint32_t d : dims_) mix(d);
  for (const std::size_t r : row_ptr_) mix(r);
  for (const std::uint32_t c : col_) mix(c);
  pattern_fingerprint_ = h;
}

void BlockSparseMatrix::set_layout(std::size_t n, std::size_t bs,
                                   const std::vector<std::uint32_t>& dims) {
  if (!dims.empty()) {
    n = 0;
    std::uint32_t widest = 0;
    for (const std::uint32_t d : dims) {
      TBMD_REQUIRE(d > 0, "BlockSparseMatrix: zero block dimension");
      n += d;
      widest = std::max(widest, d);
    }
    bs = dims.front();
    if (!dims_uniform(dims)) {
      n_ = n;
      bs_ = 0;
      max_bs_ = widest;
      nb_ = dims.size();
      dims_ = dims;
      offs_.resize(nb_ + 1);
      offs_[0] = 0;
      for (std::size_t bi = 0; bi < nb_; ++bi) {
        offs_[bi + 1] = offs_[bi] + dims_[bi];
      }
      val_ptr_.assign(1, 0);
      return;
    }
  }
  bs_ = bs == 0 ? 1 : bs;
  TBMD_REQUIRE(n % bs_ == 0,
               "BlockSparseMatrix: block size must divide the dimension");
  n_ = n;
  max_bs_ = bs_;
  nb_ = n / bs_;
  dims_.clear();
  offs_.clear();
  val_ptr_.clear();
}

void BlockSparseMatrix::index_tiles() {
  if (dims_.empty()) return;  // uniform: tile k sits at bs^2 * k
  val_ptr_.assign(col_.size() + 1, 0);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      val_ptr_[k + 1] =
          val_ptr_[k] + static_cast<std::size_t>(dims_[bi]) * dims_[col_[k]];
    }
  }
}

BlockSparseMatrix::BlockSparseMatrix(std::size_t n, std::size_t block_size) {
  set_layout(n, block_size, {});
  row_ptr_.assign(nb_ + 1, 0);
  refingerprint();
}

BlockSparseMatrix::BlockSparseMatrix(const std::vector<std::uint32_t>& dims) {
  TBMD_REQUIRE(!dims.empty(), "BlockSparseMatrix: empty block layout");
  set_layout(0, 0, dims);
  row_ptr_.assign(nb_ + 1, 0);
  refingerprint();
}

BlockSparseMatrix BlockSparseMatrix::identity(std::size_t n,
                                              std::size_t block_size) {
  return identity_like(BlockSparseMatrix(n, block_size));
}

BlockSparseMatrix BlockSparseMatrix::identity(
    const std::vector<std::uint32_t>& dims) {
  return identity_like(BlockSparseMatrix(dims));
}

BlockSparseMatrix BlockSparseMatrix::identity_like(
    const BlockSparseMatrix& like) {
  BlockSparseMatrix m = zeros_like(like);
  m.col_.resize(m.nb_);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    m.col_[bi] = static_cast<std::uint32_t>(bi);
    m.row_ptr_[bi + 1] = bi + 1;
  }
  m.index_tiles();
  m.val_.assign(m.tile_offset(m.nb_), 0.0);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    const std::size_t d = m.row_dim(bi);
    double* tile = m.val_.data() + m.tile_offset(bi);
    for (std::size_t a = 0; a < d; ++a) tile[d * a + a] = 1.0;
  }
  m.refingerprint();
  return m;
}

BlockSparseMatrix BlockSparseMatrix::zeros_like(
    const BlockSparseMatrix& like) {
  if (like.uniform_blocks()) return BlockSparseMatrix(like.n_, like.bs_);
  return BlockSparseMatrix(like.dims_);
}

BlockSparseMatrix BlockSparseMatrix::from_dense(const linalg::Matrix& a,
                                                std::size_t block_size,
                                                double drop_tolerance) {
  TBMD_REQUIRE(a.rows() == a.cols(),
               "BlockSparseMatrix: matrix must be square");
  BlockSparseMatrix m(a.rows(), block_size);
  m.fill_from_dense(a, drop_tolerance);
  return m;
}

BlockSparseMatrix BlockSparseMatrix::from_dense(
    const linalg::Matrix& a, const std::vector<std::uint32_t>& dims,
    double drop_tolerance) {
  BlockSparseMatrix m(dims);
  TBMD_REQUIRE(a.rows() == a.cols() && a.rows() == m.n_,
               "BlockSparseMatrix: dense/layout size mismatch");
  m.fill_from_dense(a, drop_tolerance);
  return m;
}

void BlockSparseMatrix::fill_from_dense(const linalg::Matrix& a,
                                        double drop_tolerance) {
  std::vector<double> tile(max_bs_ * max_bs_);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    const std::size_t oi = row_offset(bi);
    for (std::size_t bj = bi; bj < nb_; ++bj) {
      const std::size_t dj = row_dim(bj);
      const std::size_t oj = row_offset(bj);
      double norm2 = 0.0;
      for (std::size_t r = 0; r < di; ++r) {
        const double* arow = a.row(oi + r) + oj;
        for (std::size_t c = 0; c < dj; ++c) {
          tile[dj * r + c] = arow[c];
          norm2 += arow[c] * arow[c];
        }
      }
      if (keep_tile(norm2, di, dj, drop_tolerance, bi == bj)) {
        col_.push_back(static_cast<std::uint32_t>(bj));
        val_.insert(val_.end(), tile.begin(),
                    tile.begin() + static_cast<std::ptrdiff_t>(di * dj));
      }
    }
    row_ptr_[bi + 1] = col_.size();
  }
  index_tiles();
  refingerprint();
}

linalg::Matrix BlockSparseMatrix::to_dense() const {
  // fp32 payloads densify through an exact fp64 conversion (diagnostics /
  // test path; never on the hot loop).
  if (prec_ == TilePrecision::kF32) {
    return to_precision(TilePrecision::kF64).to_dense();
  }
  linalg::Matrix a(n_, n_, 0.0);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    const std::size_t oi = row_offset(bi);
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      const std::size_t dj = row_dim(bj);
      const std::size_t oj = row_offset(bj);
      const double* tile = block(k);
      for (std::size_t r = 0; r < di; ++r) {
        double* arow = a.row(oi + r) + oj;
        for (std::size_t c = 0; c < dj; ++c) arow[c] = tile[dj * r + c];
      }
      if (bj != bi) {
        // Implicit mirror: A_JI = A_IJ^T.
        for (std::size_t r = 0; r < di; ++r) {
          for (std::size_t c = 0; c < dj; ++c) {
            a(oj + c, oi + r) = tile[dj * r + c];
          }
        }
      }
    }
  }
  return a;
}

std::size_t BlockSparseMatrix::logical_block_count() const {
  std::size_t diag = 0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    // Columns are sorted and >= bi, so a diagonal tile is first in its row.
    const std::size_t k = row_ptr_[bi];
    if (k < row_ptr_[bi + 1] && col_[k] == bi) ++diag;
  }
  return 2 * block_count() - diag;
}

std::size_t BlockSparseMatrix::logical_nnz() const {
  // Every stored entry mirrors except those of diagonal tiles.
  std::size_t diag = 0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t k = row_ptr_[bi];
    if (k < row_ptr_[bi + 1] && col_[k] == bi) {
      diag += row_dim(bi) * row_dim(bi);
    }
  }
  return 2 * nnz() - diag;
}

std::size_t BlockSparseMatrix::block_index_of(std::size_t i) const {
  if (dims_.empty()) return i / bs_;
  const auto it = std::upper_bound(offs_.begin(), offs_.end(), i);
  return static_cast<std::size_t>(it - offs_.begin()) - 1;
}

const double* BlockSparseMatrix::find_block(std::size_t bi,
                                            std::size_t bj) const {
  const std::size_t k = find_block_index(bi, bj);
  return k == kNoTile ? nullptr : block(k);
}

std::size_t BlockSparseMatrix::find_block_index(std::size_t bi,
                                                std::size_t bj) const {
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi + 1]);
  const auto it =
      std::lower_bound(begin, end, static_cast<std::uint32_t>(bj));
  if (it == end || *it != bj) return kNoTile;
  return static_cast<std::size_t>(it - col_.begin());
}

void BlockSparseMatrix::convert_precision(TilePrecision p) {
  if (p == prec_) return;
  if (p == TilePrecision::kF32) {
    val32_.resize(val_.size());
    for (std::size_t q = 0; q < val_.size(); ++q) {
      val32_[q] = static_cast<float>(val_[q]);
    }
    val_.clear();  // capacity retained for the promotion back to fp64
  } else {
    val_.resize(val32_.size());
    for (std::size_t q = 0; q < val32_.size(); ++q) {
      val_[q] = static_cast<double>(val32_[q]);
    }
    val32_.clear();  // capacity retained for the next demotion
  }
  prec_ = p;
}

BlockSparseMatrix BlockSparseMatrix::to_precision(TilePrecision p) const {
  BlockSparseMatrix out = *this;
  out.convert_precision(p);
  return out;
}

double BlockSparseMatrix::get(std::size_t i, std::size_t j) const {
  std::size_t bi = block_index_of(i);
  std::size_t bj = block_index_of(j);
  std::size_t r = i - row_offset(bi);
  std::size_t c = j - row_offset(bj);
  // A lower-triangle query reads the stored mirror through the symmetry
  // A[i][j] == A[j][i].
  if (bj < bi) {
    std::swap(bi, bj);
    std::swap(r, c);
  }
  const std::size_t k = find_block_index(bi, bj);
  if (k == kNoTile) return 0.0;
  const std::size_t at = tile_offset(k) + row_dim(bj) * r + c;
  return prec_ == TilePrecision::kF32 ? static_cast<double>(val32_[at])
                                      : val_[at];
}

double BlockSparseMatrix::trace() const {
  // fp32 payloads accumulate in fp64: the purification loop's trace-based
  // coefficients and convergence tests stay fp64 quantities even while
  // the tiles are demoted.  Serial over rows, so thread-count invariant
  // trivially.
  const auto sum = [this](const auto& vals) {
    double t = 0.0;
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t k = find_block_index(bi, bi);
      if (k == kNoTile) continue;
      const auto* tile = vals.data() + tile_offset(k);
      const std::size_t d = row_dim(bi);
      for (std::size_t a = 0; a < d; ++a) {
        t += static_cast<double>(tile[d * a + a]);
      }
    }
    return t;
  };
  return prec_ == TilePrecision::kF32 ? sum(val32_) : sum(val_);
}

double BlockSparseMatrix::trace_of_product(const BlockSparseMatrix& b) const {
  TBMD_REQUIRE(layout_matches(b), "trace_of_product: size/block mismatch");
  TBMD_REQUIRE(prec_ == TilePrecision::kF64 &&
                   b.prec_ == TilePrecision::kF64,
               "trace_of_product: fp64 operands only (the band-energy "
               "contraction runs after the mixed loop promotes)");
  // Per-block-row partials are filled in parallel (each slot written by
  // exactly one row) and summed serially in row order, so the trace is
  // bit-identical at any OMP_NUM_THREADS.  A reduction(+) clause would
  // group terms by thread and change the rounding with the team size.
  //
  // Single upper-half pass.  With implicit mirrors A_JI = A_IJ^T the two
  // off-diagonal contributions tr(A_IJ B_JI) + tr(A_JI B_IJ) both reduce to
  // the elementwise dot <A_IJ, B_IJ>, hence the factor 2; diagonal tiles
  // contribute the plain tr(A_II B_II).
  std::vector<double> row_t(nb_, 0.0);
#pragma omp parallel for schedule(static) if (nb_ > 64)
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    double tr = 0.0;
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      const double* ta = block(k);
      const double* tb = b.find_block(bi, bj);
      if (tb == nullptr) continue;
      double s = 0.0;
      if (bj == bi) {
        for (std::size_t a = 0; a < di; ++a) {
          for (std::size_t c = 0; c < di; ++c) {
            s += ta[di * a + c] * tb[di * c + a];
          }
        }
      } else {
        const std::size_t sz = di * row_dim(bj);
        for (std::size_t q = 0; q < sz; ++q) s += ta[q] * tb[q];
        s *= 2.0;
      }
      tr += s;
    }
    row_t[bi] = tr;
  }
  double t = 0.0;
  for (std::size_t bi = 0; bi < nb_; ++bi) t += row_t[bi];
  return t;
}

template <typename T>
std::vector<T>& BlockSparseMatrix::payload() {
  if constexpr (std::is_same_v<T, float>) {
    return val32_;
  } else {
    return val_;
  }
}

template <typename T>
const T* BlockSparseMatrix::tile_data(std::size_t k) const {
  if constexpr (std::is_same_v<T, float>) {
    return block_f32(k);
  } else {
    return block(k);
  }
}

template <typename T>
void BlockSparseMatrix::assemble(BsrWorkspace& ws) {
  const std::vector<std::vector<T>>& staged = staging<T>(ws);
  TBMD_REQUIRE(ws.row_cols.size() >= nb_ && staged.size() >= nb_,
               "bsr_assemble: workspace rows missing");
  // A reused output may carry payloads of the other precision from a
  // previous life.
  if constexpr (std::is_same_v<T, float>) {
    val_.clear();
    prec_ = TilePrecision::kF32;
  } else {
    val32_.clear();
    prec_ = TilePrecision::kF64;
  }
  row_ptr_.assign(nb_ + 1, 0);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    row_ptr_[bi + 1] = row_ptr_[bi] + ws.row_cols[bi].size();
  }
  col_.resize(row_ptr_[nb_]);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
              col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi]));
  }
  index_tiles();
  std::vector<T>& vals = payload<T>();
  vals.resize(tile_offset(row_ptr_[nb_]));
  [[maybe_unused]] const bool par = nb_ > 64;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t at = tile_offset(row_ptr_[bi]);
    TBMD_REQUIRE(staged[bi].size() == tile_offset(row_ptr_[bi + 1]) - at,
                 "bsr_assemble: staged row size does not match the layout");
    std::copy(staged[bi].begin(), staged[bi].end(),
              vals.begin() + static_cast<std::ptrdiff_t>(at));
  }
  refingerprint();
}

void bsr_assemble(const std::vector<std::uint32_t>& dims, BsrWorkspace& ws,
                  BlockSparseMatrix& out) {
  TBMD_REQUIRE(!dims.empty(), "bsr_assemble: empty block layout");
  out.set_layout(0, 0, dims);
  out.assemble<double>(ws);
}

std::size_t BsrWorkspace::footprint_bytes() const {
  std::size_t total = 0;
  const auto vec = [&total](const auto& v) {
    total += v.capacity() * sizeof(v[0]);
  };
  const auto nested = [&total, &vec](const auto& outer) {
    total += outer.capacity() * sizeof(outer[0]);
    for (const auto& inner : outer) vec(inner);
  };
  nested(row_cols);
  nested(row_vals);
  nested(row_vals32);
  nested(acc);
  nested(acc32);
  nested(hit);
  nested(touched);
  for (const auto* adj : {&adj_a, &adj_b}) {
    vec(adj->ptr);
    vec(adj->col);
    vec(adj->tile);
    vec(adj->trans);
    vec(adj->fill);
  }
  vec(domains);
  return total;
}

template <typename T>
void BlockSparseMatrix::combine_tiles(double alpha, const BlockSparseMatrix& b,
                                      double beta, double drop_tolerance,
                                      BlockSparseMatrix& out,
                                      BsrWorkspace& ws) const {
  reset_workspace<T>(ws, nb_);
  std::vector<std::vector<T>>& staged = staging<T>(ws);
#pragma omp parallel for schedule(static) if (nb_ > 64)
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    auto& cols = ws.row_cols[bi];
    auto& vals = staged[bi];
    std::size_t ka = row_ptr_[bi], ea = row_ptr_[bi + 1];
    std::size_t kb = b.row_ptr_[bi], eb = b.row_ptr_[bi + 1];
    while (ka < ea || kb < eb) {
      const bool in_a = ka < ea && (kb >= eb || col_[ka] <= b.col_[kb]);
      const std::uint32_t bj = in_a ? col_[ka] : b.col_[kb];
      const bool in_b = kb < eb && b.col_[kb] == bj;
      const std::size_t dj = row_dim(bj);
      const std::size_t sz = di * dj;
      const std::size_t at = vals.size();
      vals.resize(at + sz);
      T* tile = vals.data() + at;
      if (in_a && in_b) {
        axpby_tile(alpha, tile_data<T>(ka++), beta, b.tile_data<T>(kb++),
                   tile, sz);
      } else if (in_a) {
        scale_tile(alpha, tile_data<T>(ka++), tile, sz);
      } else {
        scale_tile(beta, b.tile_data<T>(kb++), tile, sz);
      }
      const double norm2 = linalg::tile_norm2_rect(di, dj, tile);
      if (keep_tile(norm2, di, dj, drop_tolerance, bj == bi)) {
        cols.push_back(bj);
      } else {
        vals.resize(at);  // rejected: roll the staged tile back
      }
    }
  }
  out.set_layout(n_, bs_, dims_);
  out.assemble<T>(ws);
}

void BlockSparseMatrix::combine_into(double alpha, const BlockSparseMatrix& b,
                                     double beta, double drop_tolerance,
                                     BlockSparseMatrix& out,
                                     BsrWorkspace& ws) const {
  TBMD_REQUIRE(layout_matches(b), "combine: size/block mismatch");
  TBMD_REQUIRE(prec_ == b.prec_, "combine: tile-precision mismatch");
  TBMD_REQUIRE(&out != this && &out != &b,
               "combine_into: output must not alias an operand");
  if (prec_ == TilePrecision::kF32) {
    combine_tiles<float>(alpha, b, beta, drop_tolerance, out, ws);
  } else {
    combine_tiles<double>(alpha, b, beta, drop_tolerance, out, ws);
  }
}

BlockSparseMatrix BlockSparseMatrix::combine(double alpha,
                                             const BlockSparseMatrix& b,
                                             double beta,
                                             double drop_tolerance) const {
  BlockSparseMatrix out;
  BsrWorkspace ws;
  combine_into(alpha, b, beta, drop_tolerance, out, ws);
  return out;
}

template <typename T>
void BlockSparseMatrix::multiply_sym_tiles(const BlockSparseMatrix& b,
                                           double drop_tolerance,
                                           BlockSparseMatrix& out,
                                           BsrWorkspace& ws,
                                           BsrPattern* pattern) const {
  const std::size_t bs2 = max_bs_ * max_bs_;  // accumulator tile stride
  const bool var = !uniform_blocks();

  // Mirror-expanded adjacencies (shared when squaring).  O(stored tiles):
  // input bookkeeping, not symbolic-phase work -- the symbolic phase below
  // is the Gustavson discovery of the *output* pattern.
  build_sym_adjacency(*this, ws.adj_a);
  const BsrWorkspace::SymAdjacency& adj_a = ws.adj_a;
  if (&b != this) build_sym_adjacency(b, ws.adj_b);
  const BsrWorkspace::SymAdjacency& adj_b = (&b == this) ? ws.adj_a : ws.adj_b;

  BsrPattern local;
  BsrPattern& pat = pattern != nullptr ? *pattern : local;
  const bool warm = pat.valid && pat.a_fingerprint == pattern_fingerprint_ &&
                    pat.b_fingerprint == b.pattern_fingerprint_;

  std::vector<std::vector<T>>& accs = accumulators<T>(ws);
  const auto nthreads = static_cast<std::size_t>(par::max_threads());
  if (accs.size() < nthreads) accs.resize(nthreads);
  if (ws.hit.size() < nthreads) {
    ws.hit.resize(nthreads);
    ws.touched.resize(nthreads);
  }

  // Optional contiguous row-domain decomposition (ws.domains): both phases
  // then sweep whole domains with a static round-robin so thread t owns
  // the same rows every call (cache/NUMA affinity across purification
  // iterations).  Per-row work is untouched, so the output is
  // bit-identical with or without sharding at any thread count.
  const std::vector<std::size_t>& dom = ws.domains;
  const bool sharded =
      dom.size() > 2 && dom.front() == 0 && dom.back() == nb_;

  if (!warm) {
    // Symbolic phase: discover the upper-half output pattern (no flops).
    // Patterns are structure-only, so one discovered by either precision
    // warms the other.
    ++ws.stats.symbolic_builds;
    reset_workspace<T>(ws, nb_);
#pragma omp parallel
    {
      const auto tid = static_cast<std::size_t>(par::thread_id());
      std::vector<std::uint8_t>& hit = ws.hit[tid];
      std::vector<std::uint32_t>& touched = ws.touched[tid];
      if (hit.size() < nb_) hit.assign(nb_, 0);
      touched.reserve(256);
      // always_inline: keeps the row body a leaf of the outlined parallel
      // region instead of a separately-emitted lambda call.
      const auto symbolic_row = [&](std::size_t bi)
          __attribute__((always_inline)) {
        touched.clear();
        for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
          const std::size_t bk = adj_a.col[ua];
          for (std::size_t ub = adj_lower_bound(adj_b, bk, bi);
               ub < adj_b.ptr[bk + 1]; ++ub) {
            const std::uint32_t bj = adj_b.col[ub];
            if (hit[bj] == 0) {
              hit[bj] = 1;
              touched.push_back(bj);
            }
          }
        }
        std::sort(touched.begin(), touched.end());
        ws.row_cols[bi].assign(touched.begin(), touched.end());
        for (const std::uint32_t bj : touched) hit[bj] = 0;
      };
      if (sharded) {
#pragma omp for schedule(static, 1)
        for (std::size_t d = 0; d < dom.size() - 1; ++d) {
          for (std::size_t bi = dom[d]; bi < dom[d + 1]; ++bi) {
            symbolic_row(bi);
          }
        }
      } else {
#pragma omp for schedule(dynamic, 8)
        for (std::size_t bi = 0; bi < nb_; ++bi) symbolic_row(bi);
      }
    }
    pat.row_ptr.assign(nb_ + 1, 0);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      pat.row_ptr[bi + 1] = pat.row_ptr[bi] + ws.row_cols[bi].size();
    }
    pat.cols.resize(pat.row_ptr[nb_]);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
                pat.cols.begin() +
                    static_cast<std::ptrdiff_t>(pat.row_ptr[bi]));
    }
    pat.a_fingerprint = pattern_fingerprint_;
    pat.b_fingerprint = b.pattern_fingerprint_;
    pat.valid = true;
  } else {
    ++ws.stats.numeric_reuses;
  }

  // Numeric phase on the (frozen or just-built) pattern: identical sweep
  // and accumulation order either way, so warm results are bit-identical
  // to cold ones.  Truncation prunes against the pattern during the
  // gather; the pattern itself stays frozen (it describes the un-truncated
  // Gustavson product of the operand patterns).  Tiles, accumulators and
  // staging are of the operand precision; truncation thresholds stay fp64.
  reset_workspace<T>(ws, nb_);
  std::vector<std::vector<T>>& staged = staging<T>(ws);
  // fp32 sp-block sweep: the kernel dispatch is hoisted out of the product
  // loop, and a transposed A tile is repacked once per adjacency entry
  // instead of strided-read once per product.  Repacking moves values
  // without reordering any output element's k-accumulation, so results
  // stay bit-identical to the generic walk.
  const bool sp_f32 = std::is_same_v<T, float> && !var && bs_ == 4;
  // The row body lives in one always_inline lambda (per-thread accumulator
  // passed as an argument) and each scheduling variant gets its own
  // parallel region, so the default path's outlined function holds exactly
  // the single row loop -- the hot sweep's codegen cannot be perturbed by
  // the opt-in domain branch.
  const auto numeric_row = [&](std::size_t bi, std::vector<T>& acc)
      __attribute__((always_inline)) {
    const std::size_t di = row_dim(bi);
    if (sp_f32) {
      if constexpr (std::is_same_v<T, float>) {
        for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
          const std::size_t bk = adj_a.col[ua];
          const float* ta = tile_data<T>(adj_a.tile[ua]);
          float at[16];
          if (adj_a.trans[ua] != 0) {
            for (std::size_t r = 0; r < 4; ++r) {
              for (std::size_t q = 0; q < 4; ++q) at[4 * r + q] = ta[4 * q + r];
            }
            ta = at;
          }
          for (std::size_t ub = adj_lower_bound(adj_b, bk, bi);
               ub < adj_b.ptr[bk + 1]; ++ub) {
            const std::uint32_t bj = adj_b.col[ub];
            linalg::detail::micro_add_square_f32<4>(
                false, adj_b.trans[ub] != 0, ta,
                b.tile_data<T>(adj_b.tile[ub]), acc.data() + 16 * bj);
          }
        }
      }
    } else {
      for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
        const std::size_t bk = adj_a.col[ua];
        const std::size_t dk = row_dim(bk);
        const T* ta = tile_data<T>(adj_a.tile[ua]);
        const bool trans_a = adj_a.trans[ua] != 0;
        for (std::size_t ub = adj_lower_bound(adj_b, bk, bi);
             ub < adj_b.ptr[bk + 1]; ++ub) {
          const std::uint32_t bj = adj_b.col[ub];
          tile_product(var, di, dk, row_dim(bj), trans_a,
                       adj_b.trans[ub] != 0, ta,
                       b.tile_data<T>(adj_b.tile[ub]), acc.data() + bs2 * bj);
        }
      }
    }
    // Gather through the pattern row: it lists exactly the columns the
    // products above touched, so the sweep also restores acc to zero.
    auto& cols = ws.row_cols[bi];
    auto& vals = staged[bi];
    const std::size_t pe = pat.row_ptr[bi + 1];
    cols.reserve(pe - pat.row_ptr[bi]);
    for (std::size_t pp = pat.row_ptr[bi]; pp < pe; ++pp) {
      const std::uint32_t bj = pat.cols[pp];
      T* tile = acc.data() + bs2 * bj;
      const std::size_t dj = row_dim(bj);
      const std::size_t sz = di * dj;
      const double norm2 = linalg::tile_norm2_rect(di, dj, tile);
      if (keep_tile(norm2, di, dj, drop_tolerance, bj == bi)) {
        cols.push_back(bj);
        vals.insert(vals.end(), tile, tile + sz);
      }
      std::fill(tile, tile + sz, T(0));
    }
  };
  if (sharded) {
#pragma omp parallel
    {
      const auto tid = static_cast<std::size_t>(par::thread_id());
      std::vector<T>& acc = accs[tid];
      if (acc.size() < nb_ * bs2) acc.assign(nb_ * bs2, T(0));
#pragma omp for schedule(static, 1)
      for (std::size_t d = 0; d < dom.size() - 1; ++d) {
        for (std::size_t bi = dom[d]; bi < dom[d + 1]; ++bi) {
          numeric_row(bi, acc);
        }
      }
    }
  } else {
#pragma omp parallel
    {
      const auto tid = static_cast<std::size_t>(par::thread_id());
      std::vector<T>& acc = accs[tid];
      if (acc.size() < nb_ * bs2) acc.assign(nb_ * bs2, T(0));
#pragma omp for schedule(dynamic, 8)
      for (std::size_t bi = 0; bi < nb_; ++bi) numeric_row(bi, acc);
    }
  }
  out.set_layout(n_, bs_, dims_);
  out.assemble<T>(ws);
}

void BlockSparseMatrix::multiply_sym_into(const BlockSparseMatrix& b,
                                          double drop_tolerance,
                                          BlockSparseMatrix& out,
                                          BsrWorkspace& ws,
                                          BsrPattern* pattern) const {
  TBMD_REQUIRE(layout_matches(b), "multiply_sym: size/block mismatch");
  TBMD_REQUIRE(prec_ == b.prec_, "multiply_sym: tile-precision mismatch");
  TBMD_REQUIRE(&out != this && &out != &b,
               "multiply_sym_into: output must not alias an operand");
  if (prec_ == TilePrecision::kF32) {
    multiply_sym_tiles<float>(b, drop_tolerance, out, ws, pattern);
  } else {
    multiply_sym_tiles<double>(b, drop_tolerance, out, ws, pattern);
  }
}

linalg::SpectralBounds BlockSparseMatrix::gershgorin_bounds() const {
  TBMD_REQUIRE(prec_ == TilePrecision::kF64,
               "gershgorin_bounds: fp64 payloads only (H is never demoted)");
  // Upper-half pass: an off-diagonal tile (I, J) contributes its row sums
  // to the radii of block row I and -- through the implicit mirror
  // A_JI = A_IJ^T -- its column sums to the radii of block row J.
  std::vector<double> diag(n_, 0.0), radius(n_, 0.0);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    const std::size_t oi = row_offset(bi);
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      const std::size_t dj = row_dim(bj);
      const std::size_t oj = row_offset(bj);
      const double* tile = block(k);
      for (std::size_t r = 0; r < di; ++r) {
        for (std::size_t c = 0; c < dj; ++c) {
          const double v = tile[dj * r + c];
          if (bj == bi) {
            if (c == r) {
              diag[oi + r] = v;
            } else {
              radius[oi + r] += std::fabs(v);
            }
          } else {
            radius[oi + r] += std::fabs(v);
            radius[oj + c] += std::fabs(v);
          }
        }
      }
    }
  }
  linalg::SpectralBounds bounds;
  for (std::size_t i = 0; i < n_; ++i) {
    const double lo = diag[i] - radius[i];
    const double hi = diag[i] + radius[i];
    if (i == 0) {
      bounds.lo = lo;
      bounds.hi = hi;
    } else {
      bounds.lo = std::min(bounds.lo, lo);
      bounds.hi = std::max(bounds.hi, hi);
    }
  }
  return bounds;
}

}  // namespace tbmd::onx
