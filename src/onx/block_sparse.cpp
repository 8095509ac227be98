#include "src/onx/block_sparse.hpp"

#include <algorithm>
#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::onx {

namespace {

/// Keep a tile of squared Frobenius norm `norm2`?  A tile is dropped when
/// ||T||_F <= bs * tol, i.e. when its RMS entry is below the tolerance:
/// the perturbation from discarding it is then no larger than that of the
/// bs^2 scalar entries of magnitude tol the element-wise criterion already
/// tolerates dropping.  Reduces to |v| > tol exactly when bs == 1.
inline bool keep_tile(double norm2, std::size_t bs, double drop_tolerance) {
  const double scaled = static_cast<double>(bs) * drop_tolerance;
  return norm2 > scaled * scaled;
}

/// The rectangular-tile form of keep_tile: `count` is the tile's entry
/// count, so sqrt(count) plays the role the edge bs plays for square
/// tiles (they agree when count == bs^2, up to rounding -- which is why
/// the uniform paths keep calling keep_tile unchanged).
inline bool keep_tile_rect(double norm2, std::size_t count,
                           double drop_tolerance) {
  const double scaled =
      std::sqrt(static_cast<double>(count)) * drop_tolerance;
  return norm2 > scaled * scaled;
}

/// All entries equal (an all-equal dims vector normalizes to uniform mode)?
inline bool dims_uniform(const std::vector<std::uint32_t>& dims) {
  for (const std::uint32_t d : dims) {
    if (d != dims.front()) return false;
  }
  return true;
}

}  // namespace

void BlockSparseMatrix::refingerprint() {
  // FNV-1a over the structural identity: any pattern, dimension or storage
  // mode change yields a different fingerprint, so a stale BsrPattern can
  // never validate against a rebuilt operand.
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
  mix(sym_ ? 1u : 0u);
  // Variable mode: the per-row dims are part of the structure (bs_ == 0
  // there, so a variable matrix can never collide with a uniform one; the
  // loop is empty in uniform mode and fingerprints are unchanged).
  for (const std::uint32_t d : dims_) mix(d);
  for (const std::size_t r : row_ptr_) mix(r);
  for (const std::uint32_t c : col_) mix(c);
  pattern_fingerprint_ = h;
}

BlockSparseMatrix::BlockSparseMatrix(std::size_t n, std::size_t block_size,
                                     bool symmetric_half)
    : n_(n), bs_(block_size == 0 ? 1 : block_size), max_bs_(bs_),
      sym_(symmetric_half) {
  TBMD_REQUIRE(n % bs_ == 0,
               "BlockSparseMatrix: block size must divide the dimension");
  nb_ = n_ / bs_;
  row_ptr_.assign(nb_ + 1, 0);
  refingerprint();
}

BlockSparseMatrix::BlockSparseMatrix(const std::vector<std::uint32_t>& dims,
                                     bool symmetric_half)
    : sym_(symmetric_half) {
  TBMD_REQUIRE(!dims.empty(), "BlockSparseMatrix: empty block layout");
  std::size_t n = 0;
  std::uint32_t widest = 0;
  for (const std::uint32_t d : dims) {
    TBMD_REQUIRE(d > 0, "BlockSparseMatrix: zero block dimension");
    n += d;
    widest = std::max(widest, d);
  }
  n_ = n;
  nb_ = dims.size();
  if (dims_uniform(dims)) {
    bs_ = dims.front();
    max_bs_ = bs_;
  } else {
    bs_ = 0;
    max_bs_ = widest;
    dims_ = dims;
    offs_.resize(nb_ + 1);
    offs_[0] = 0;
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      offs_[bi + 1] = offs_[bi] + dims[bi];
    }
    val_ptr_.assign(1, 0);
  }
  row_ptr_.assign(nb_ + 1, 0);
  refingerprint();
}

BlockSparseMatrix BlockSparseMatrix::identity(std::size_t n,
                                              std::size_t block_size,
                                              bool symmetric_half) {
  BlockSparseMatrix m(n, block_size, symmetric_half);
  const std::size_t bs = m.bs_;
  m.col_.resize(m.nb_);
  m.val_.assign(m.nb_ * bs * bs, 0.0);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    m.col_[bi] = static_cast<std::uint32_t>(bi);
    m.row_ptr_[bi + 1] = bi + 1;
    double* tile = m.val_.data() + bs * bs * bi;
    for (std::size_t a = 0; a < bs; ++a) tile[bs * a + a] = 1.0;
  }
  m.refingerprint();
  return m;
}

BlockSparseMatrix BlockSparseMatrix::identity(
    const std::vector<std::uint32_t>& dims, bool symmetric_half) {
  BlockSparseMatrix m(dims, symmetric_half);
  if (m.uniform_blocks()) return identity(m.n_, m.bs_, symmetric_half);
  m.col_.resize(m.nb_);
  m.val_ptr_.resize(m.nb_ + 1);
  m.val_ptr_[0] = 0;
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    const std::size_t d = dims[bi];
    m.val_ptr_[bi + 1] = m.val_ptr_[bi] + d * d;
  }
  m.val_.assign(m.val_ptr_[m.nb_], 0.0);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    m.col_[bi] = static_cast<std::uint32_t>(bi);
    m.row_ptr_[bi + 1] = bi + 1;
    const std::size_t d = dims[bi];
    double* tile = m.val_.data() + m.val_ptr_[bi];
    for (std::size_t a = 0; a < d; ++a) tile[d * a + a] = 1.0;
  }
  m.refingerprint();
  return m;
}

BlockSparseMatrix BlockSparseMatrix::identity_like(
    const BlockSparseMatrix& like) {
  if (like.uniform_blocks()) return identity(like.n_, like.bs_, like.sym_);
  return identity(like.dims_, like.sym_);
}

BlockSparseMatrix BlockSparseMatrix::zeros_like(
    const BlockSparseMatrix& like) {
  if (like.uniform_blocks()) {
    return BlockSparseMatrix(like.n_, like.bs_, like.sym_);
  }
  return BlockSparseMatrix(like.dims_, like.sym_);
}

BlockSparseMatrix BlockSparseMatrix::from_dense(const linalg::Matrix& a,
                                                std::size_t block_size,
                                                double drop_tolerance) {
  TBMD_REQUIRE(a.rows() == a.cols(),
               "BlockSparseMatrix: matrix must be square");
  BlockSparseMatrix m(a.rows(), block_size);
  const std::size_t bs = m.bs_;
  std::vector<double> tile(bs * bs);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    for (std::size_t bj = 0; bj < m.nb_; ++bj) {
      double norm2 = 0.0;
      for (std::size_t r = 0; r < bs; ++r) {
        const double* arow = a.row(bs * bi + r) + bs * bj;
        for (std::size_t c = 0; c < bs; ++c) {
          tile[bs * r + c] = arow[c];
          norm2 += arow[c] * arow[c];
        }
      }
      if (keep_tile(norm2, bs, drop_tolerance) || (bi == bj && norm2 > 0.0)) {
        m.col_.push_back(static_cast<std::uint32_t>(bj));
        m.val_.insert(m.val_.end(), tile.begin(), tile.end());
      }
    }
    m.row_ptr_[bi + 1] = m.col_.size();
  }
  m.refingerprint();
  return m;
}

BlockSparseMatrix BlockSparseMatrix::from_dense(
    const linalg::Matrix& a, const std::vector<std::uint32_t>& dims,
    double drop_tolerance) {
  BlockSparseMatrix m(dims, /*symmetric_half=*/false);
  if (m.uniform_blocks()) return from_dense(a, m.bs_, drop_tolerance);
  TBMD_REQUIRE(a.rows() == a.cols() && a.rows() == m.n_,
               "BlockSparseMatrix: dense/layout size mismatch");
  std::vector<double> tile(m.max_bs_ * m.max_bs_);
  for (std::size_t bi = 0; bi < m.nb_; ++bi) {
    const std::size_t di = m.dims_[bi];
    const std::size_t oi = m.offs_[bi];
    for (std::size_t bj = 0; bj < m.nb_; ++bj) {
      const std::size_t dj = m.dims_[bj];
      const std::size_t oj = m.offs_[bj];
      double norm2 = 0.0;
      for (std::size_t r = 0; r < di; ++r) {
        const double* arow = a.row(oi + r) + oj;
        for (std::size_t c = 0; c < dj; ++c) {
          tile[dj * r + c] = arow[c];
          norm2 += arow[c] * arow[c];
        }
      }
      if (keep_tile_rect(norm2, di * dj, drop_tolerance) ||
          (bi == bj && norm2 > 0.0)) {
        m.col_.push_back(static_cast<std::uint32_t>(bj));
        m.val_.insert(m.val_.end(), tile.begin(),
                      tile.begin() + static_cast<std::ptrdiff_t>(di * dj));
        m.val_ptr_.push_back(m.val_.size());
      }
    }
    m.row_ptr_[bi + 1] = m.col_.size();
  }
  m.refingerprint();
  return m;
}

linalg::Matrix BlockSparseMatrix::to_dense() const {
  // fp32 payloads densify through an exact fp64 conversion (diagnostics /
  // test path; never on the hot loop).
  if (prec_ == TilePrecision::kF32) {
    return to_precision(TilePrecision::kF64).to_dense();
  }
  if (!uniform_blocks()) {
    linalg::Matrix a(n_, n_, 0.0);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      const std::size_t oi = offs_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t bj = col_[k];
        const std::size_t dj = dims_[bj];
        const std::size_t oj = offs_[bj];
        const double* tile = block(k);
        for (std::size_t r = 0; r < di; ++r) {
          double* arow = a.row(oi + r) + oj;
          for (std::size_t c = 0; c < dj; ++c) arow[c] = tile[dj * r + c];
        }
        if (sym_ && bj != bi) {
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
  linalg::Matrix a(n_, n_, 0.0);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      const double* tile = block(k);
      for (std::size_t r = 0; r < bs_; ++r) {
        double* arow = a.row(bs_ * bi + r) + bs_ * bj;
        for (std::size_t c = 0; c < bs_; ++c) arow[c] = tile[bs_ * r + c];
      }
      if (sym_ && bj != bi) {
        // Implicit mirror: A_JI = A_IJ^T.
        for (std::size_t r = 0; r < bs_; ++r) {
          for (std::size_t c = 0; c < bs_; ++c) {
            a(bs_ * bj + c, bs_ * bi + r) = tile[bs_ * r + c];
          }
        }
      }
    }
  }
  return a;
}

BlockSparseMatrix BlockSparseMatrix::to_symmetric_half() const {
  TBMD_REQUIRE(prec_ == TilePrecision::kF64,
               "to_symmetric_half: convert fp32 payloads to fp64 first");
  if (sym_) return *this;
  if (!uniform_blocks()) {
    BlockSparseMatrix out(dims_, true);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        if (col_[k] < bi) continue;  // lower half: the stored mirror's copy
        out.col_.push_back(col_[k]);
        const double* tile = block(k);
        out.val_.insert(out.val_.end(), tile, tile + di * dims_[col_[k]]);
        out.val_ptr_.push_back(out.val_.size());
      }
      out.row_ptr_[bi + 1] = out.col_.size();
    }
    out.refingerprint();
    return out;
  }
  BlockSparseMatrix out(n_, bs_, true);
  const std::size_t bs2 = bs_ * bs_;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      if (col_[k] < bi) continue;  // lower half: the stored mirror's copy
      out.col_.push_back(col_[k]);
      const double* tile = block(k);
      out.val_.insert(out.val_.end(), tile, tile + bs2);
    }
    out.row_ptr_[bi + 1] = out.col_.size();
  }
  out.refingerprint();
  return out;
}

BlockSparseMatrix BlockSparseMatrix::to_full() const {
  TBMD_REQUIRE(prec_ == TilePrecision::kF64,
               "to_full: convert fp32 payloads to fp64 first");
  if (!sym_) return *this;
  if (!uniform_blocks()) {
    BlockSparseMatrix out(dims_, false);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      out.row_ptr_[bi + 1] += row_ptr_[bi + 1] - row_ptr_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        if (col_[k] != bi) ++out.row_ptr_[col_[k] + 1];
      }
    }
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      out.row_ptr_[bi + 1] += out.row_ptr_[bi];
    }
    const std::size_t nblocks = out.row_ptr_[nb_];
    out.col_.resize(nblocks);
    // Pattern passes first (mirror then direct, same ordering as the
    // uniform path so every row comes out sorted) ...
    std::vector<std::size_t> fill(out.row_ptr_.begin(),
                                  out.row_ptr_.end() - 1);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        if (col_[k] == bi) continue;
        out.col_[fill[col_[k]]++] = static_cast<std::uint32_t>(bi);
      }
    }
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        out.col_[fill[bi]++] = col_[k];
      }
    }
    // ... then the per-tile value offsets the fills scatter through.
    out.val_ptr_.assign(nblocks + 1, 0);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      for (std::size_t k = out.row_ptr_[bi]; k < out.row_ptr_[bi + 1]; ++k) {
        out.val_ptr_[k + 1] =
            static_cast<std::size_t>(dims_[bi]) * dims_[out.col_[k]];
      }
    }
    for (std::size_t k = 0; k < nblocks; ++k) {
      out.val_ptr_[k + 1] += out.val_ptr_[k];
    }
    out.val_.assign(out.val_ptr_[nblocks], 0.0);
    fill.assign(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t bj = col_[k];
        if (bj == bi) continue;
        const std::size_t dj = dims_[bj];
        const std::size_t slot = fill[bj]++;
        const double* tile = block(k);
        double* dst = out.val_.data() + out.val_ptr_[slot];
        for (std::size_t r = 0; r < di; ++r) {
          for (std::size_t c = 0; c < dj; ++c) {
            dst[di * c + r] = tile[dj * r + c];
          }
        }
      }
    }
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t sz = di * dims_[col_[k]];
        const std::size_t slot = fill[bi]++;
        const double* tile = block(k);
        std::copy(tile, tile + sz,
                  out.val_.begin() +
                      static_cast<std::ptrdiff_t>(out.val_ptr_[slot]));
      }
    }
    out.refingerprint();
    return out;
  }
  BlockSparseMatrix out(n_, bs_, false);
  const std::size_t bs2 = bs_ * bs_;
  // Count: each stored tile lands in its own row, off-diagonal tiles also
  // mirror into row J.
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    out.row_ptr_[bi + 1] += row_ptr_[bi + 1] - row_ptr_[bi];
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      if (col_[k] != bi) ++out.row_ptr_[col_[k] + 1];
    }
  }
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    out.row_ptr_[bi + 1] += out.row_ptr_[bi];
  }
  const std::size_t nblocks = out.row_ptr_[nb_];
  out.col_.resize(nblocks);
  out.val_.assign(nblocks * bs2, 0.0);
  std::vector<std::size_t> fill(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  // Mirror pass first: for target row J the mirrored columns are all < J
  // and arrive in ascending source-row order, then the direct pass appends
  // columns >= J in stored order, so every row comes out sorted.
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      if (bj == bi) continue;
      const std::size_t slot = fill[bj]++;
      out.col_[slot] = static_cast<std::uint32_t>(bi);
      const double* tile = block(k);
      double* dst = out.val_.data() + bs2 * slot;
      for (std::size_t r = 0; r < bs_; ++r) {
        for (std::size_t c = 0; c < bs_; ++c) {
          dst[bs_ * c + r] = tile[bs_ * r + c];
        }
      }
    }
  }
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t slot = fill[bi]++;
      out.col_[slot] = col_[k];
      const double* tile = block(k);
      std::copy(tile, tile + bs2, out.val_.begin() +
                                      static_cast<std::ptrdiff_t>(bs2 * slot));
    }
  }
  out.refingerprint();
  return out;
}

std::size_t BlockSparseMatrix::logical_block_count() const {
  if (!sym_) return block_count();
  std::size_t diag = 0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    // Columns are sorted and >= bi, so a diagonal tile is first in its row.
    const std::size_t k = row_ptr_[bi];
    if (k < row_ptr_[bi + 1] && col_[k] == bi) ++diag;
  }
  return 2 * block_count() - diag;
}

std::size_t BlockSparseMatrix::logical_nnz() const {
  if (uniform_blocks()) return logical_block_count() * bs_ * bs_;
  if (!sym_) return val_.size();
  // Half storage: every stored entry mirrors except those of diagonal
  // tiles.
  std::size_t diag = 0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t k = row_ptr_[bi];
    if (k < row_ptr_[bi + 1] && col_[k] == bi) {
      diag += static_cast<std::size_t>(dims_[bi]) * dims_[bi];
    }
  }
  return 2 * val_.size() - diag;
}

std::size_t BlockSparseMatrix::block_index_of(std::size_t i) const {
  const auto it = std::upper_bound(offs_.begin(), offs_.end(), i);
  return static_cast<std::size_t>(it - offs_.begin()) - 1;
}

const double* BlockSparseMatrix::find_block(std::size_t bi,
                                            std::size_t bj) const {
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi + 1]);
  const auto it =
      std::lower_bound(begin, end, static_cast<std::uint32_t>(bj));
  if (it == end || *it != bj) return nullptr;
  return block(static_cast<std::size_t>(it - col_.begin()));
}

std::size_t BlockSparseMatrix::find_block_index(std::size_t bi,
                                                std::size_t bj) const {
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[bi + 1]);
  const auto it =
      std::lower_bound(begin, end, static_cast<std::uint32_t>(bj));
  if (it == end || *it != bj) return static_cast<std::size_t>(-1);
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
  if (prec_ == TilePrecision::kF32) {
    std::size_t bi, bj, r, c;
    if (uniform_blocks()) {
      bi = i / bs_;
      bj = j / bs_;
      r = i % bs_;
      c = j % bs_;
    } else {
      bi = block_index_of(i);
      bj = block_index_of(j);
      r = i - offs_[bi];
      c = j - offs_[bj];
    }
    // Half storage: a lower-triangle query reads the stored mirror through
    // the symmetry A[i][j] == A[j][i].
    if (sym_ && bj < bi) {
      std::swap(bi, bj);
      std::swap(r, c);
    }
    const std::size_t k = find_block_index(bi, bj);
    if (k == static_cast<std::size_t>(-1)) return 0.0;
    const std::size_t dj = row_dim(bj);
    return static_cast<double>(block_f32(k)[dj * r + c]);
  }
  if (!uniform_blocks()) {
    std::size_t bi = block_index_of(i);
    std::size_t bj = block_index_of(j);
    std::size_t r = i - offs_[bi];
    std::size_t c = j - offs_[bj];
    // Half storage: a lower-triangle query reads the stored mirror through
    // the symmetry A[i][j] == A[j][i].
    if (sym_ && bj < bi) {
      std::swap(bi, bj);
      std::swap(r, c);
    }
    const double* tile = find_block(bi, bj);
    if (tile == nullptr) return 0.0;
    return tile[dims_[bj] * r + c];
  }
  std::size_t r = i, c = j;
  // Half storage: a lower-triangle query reads the stored mirror through
  // the symmetry A[i][j] == A[j][i].
  if (sym_ && j / bs_ < i / bs_) std::swap(r, c);
  const double* tile = find_block(r / bs_, c / bs_);
  if (tile == nullptr) return 0.0;
  return tile[bs_ * (r % bs_) + (c % bs_)];
}

double BlockSparseMatrix::trace() const {
  if (prec_ == TilePrecision::kF32) {
    // fp32 payloads, fp64 accumulation: the purification loop's trace-based
    // coefficients and convergence tests stay fp64 quantities even while
    // the tiles are demoted.  Serial over rows, so thread-count invariant
    // trivially.
    double t = 0.0;
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t k = find_block_index(bi, bi);
      if (k == static_cast<std::size_t>(-1)) continue;
      const float* tile = block_f32(k);
      const std::size_t d = row_dim(bi);
      for (std::size_t a = 0; a < d; ++a) {
        t += static_cast<double>(tile[d * a + a]);
      }
    }
    return t;
  }
  double t = 0.0;
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const double* tile = find_block(bi, bi);
    if (tile == nullptr) continue;
    const std::size_t d = row_dim(bi);
    for (std::size_t a = 0; a < d; ++a) t += tile[d * a + a];
  }
  return t;
}

double BlockSparseMatrix::trace_of_product(const BlockSparseMatrix& b) const {
  TBMD_REQUIRE(layout_matches(b), "trace_of_product: size/block mismatch");
  TBMD_REQUIRE(sym_ == b.sym_, "trace_of_product: storage-mode mismatch");
  TBMD_REQUIRE(prec_ == TilePrecision::kF64 &&
                   b.prec_ == TilePrecision::kF64,
               "trace_of_product: fp64 operands only (the band-energy "
               "contraction runs after the mixed loop promotes)");
  // Per-block-row partials are filled in parallel (each slot written by
  // exactly one row) and summed serially in row order, so the trace is
  // bit-identical at any OMP_NUM_THREADS.  A reduction(+) clause would
  // group terms by thread and change the rounding with the team size.
  std::vector<double> row_t(nb_, 0.0);
  [[maybe_unused]] const bool par = nb_ > 64;
  if (sym_) {
    // Single upper-half pass.  With implicit mirrors A_JI = A_IJ^T the two
    // off-diagonal contributions tr(A_IJ B_JI) + tr(A_JI B_IJ) both reduce
    // to the elementwise dot <A_IJ, B_IJ>, hence the factor 2; diagonal
    // tiles contribute the plain tr(A_II B_II).
#pragma omp parallel for schedule(static) if (par)
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
  } else {
#pragma omp parallel for schedule(static) if (par)
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = row_dim(bi);
      double tr = 0.0;
      for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
        const std::size_t dj = row_dim(col_[k]);
        const double* ta = block(k);
        const double* tb = b.find_block(col_[k], bi);
        if (tb == nullptr) continue;
        // sum_ab A_IJ[a,b] * B_JI[b,a]
        double s = 0.0;
        for (std::size_t a = 0; a < di; ++a) {
          for (std::size_t c = 0; c < dj; ++c) {
            s += ta[dj * a + c] * tb[di * c + a];
          }
        }
        tr += s;
      }
      row_t[bi] = tr;
    }
  }
  double t = 0.0;
  for (std::size_t bi = 0; bi < nb_; ++bi) t += row_t[bi];
  return t;
}

void bsr_assemble(std::size_t n, std::size_t bs, BsrWorkspace& ws,
                  BlockSparseMatrix& out, bool symmetric_half) {
  out.n_ = n;
  out.bs_ = bs;
  out.max_bs_ = bs;
  out.nb_ = n / bs;
  out.sym_ = symmetric_half;
  // A reused output may carry a variable layout or fp32 payloads from a
  // previous life.
  out.dims_.clear();
  out.offs_.clear();
  out.val_ptr_.clear();
  out.val32_.clear();
  out.prec_ = TilePrecision::kF64;
  const std::size_t nb = out.nb_;
  const std::size_t bs2 = bs * bs;
  TBMD_REQUIRE(ws.row_cols.size() >= nb && ws.row_vals.size() >= nb,
               "bsr_assemble: workspace rows missing");
  out.row_ptr_.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    out.row_ptr_[bi + 1] = out.row_ptr_[bi] + ws.row_cols[bi].size();
  }
  const std::size_t nblocks = out.row_ptr_[nb];
  out.col_.resize(nblocks);
  out.val_.resize(nblocks * bs2);
  [[maybe_unused]] const bool par = nb > 64;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const std::size_t at = out.row_ptr_[bi];
    std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
              out.col_.begin() + static_cast<std::ptrdiff_t>(at));
    std::copy(ws.row_vals[bi].begin(), ws.row_vals[bi].end(),
              out.val_.begin() + static_cast<std::ptrdiff_t>(at * bs2));
  }
  out.refingerprint();
}

void bsr_assemble(const std::vector<std::uint32_t>& dims, BsrWorkspace& ws,
                  BlockSparseMatrix& out, bool symmetric_half) {
  TBMD_REQUIRE(!dims.empty(), "bsr_assemble: empty block layout");
  std::size_t n = 0;
  std::uint32_t widest = 0;
  for (const std::uint32_t d : dims) {
    n += d;
    widest = std::max(widest, d);
  }
  if (dims_uniform(dims)) {
    bsr_assemble(n, dims.front(), ws, out, symmetric_half);
    return;
  }
  const std::size_t nb = dims.size();
  TBMD_REQUIRE(ws.row_cols.size() >= nb && ws.row_vals.size() >= nb,
               "bsr_assemble: workspace rows missing");
  out.n_ = n;
  out.bs_ = 0;
  out.max_bs_ = widest;
  out.nb_ = nb;
  out.sym_ = symmetric_half;
  out.val32_.clear();
  out.prec_ = TilePrecision::kF64;
  out.dims_ = dims;
  out.offs_.resize(nb + 1);
  out.offs_[0] = 0;
  for (std::size_t bi = 0; bi < nb; ++bi) {
    out.offs_[bi + 1] = out.offs_[bi] + dims[bi];
  }
  out.row_ptr_.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    out.row_ptr_[bi + 1] = out.row_ptr_[bi] + ws.row_cols[bi].size();
  }
  const std::size_t nblocks = out.row_ptr_[nb];
  out.col_.resize(nblocks);
  out.val_ptr_.assign(nblocks + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const std::size_t at = out.row_ptr_[bi];
    std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
              out.col_.begin() + static_cast<std::ptrdiff_t>(at));
    for (std::size_t k = at; k < out.row_ptr_[bi + 1]; ++k) {
      out.val_ptr_[k + 1] =
          static_cast<std::size_t>(dims[bi]) * dims[out.col_[k]];
    }
  }
  for (std::size_t k = 0; k < nblocks; ++k) {
    out.val_ptr_[k + 1] += out.val_ptr_[k];
  }
  out.val_.resize(out.val_ptr_[nblocks]);
  [[maybe_unused]] const bool par = nb > 64;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const std::size_t at = out.val_ptr_[out.row_ptr_[bi]];
    TBMD_REQUIRE(ws.row_vals[bi].size() ==
                     out.val_ptr_[out.row_ptr_[bi + 1]] - at,
                 "bsr_assemble: staged row size does not match the layout");
    std::copy(ws.row_vals[bi].begin(), ws.row_vals[bi].end(),
              out.val_.begin() + static_cast<std::ptrdiff_t>(at));
  }
  out.refingerprint();
}

void BlockSparseMatrix::assemble_f32(std::size_t n, std::size_t bs,
                                     BsrWorkspace& ws, BlockSparseMatrix& out,
                                     bool symmetric_half) {
  out.n_ = n;
  out.bs_ = bs;
  out.max_bs_ = bs;
  out.nb_ = n / bs;
  out.sym_ = symmetric_half;
  // A reused output may carry a variable layout or fp64 payloads from a
  // previous life.
  out.dims_.clear();
  out.offs_.clear();
  out.val_ptr_.clear();
  out.val_.clear();
  out.prec_ = TilePrecision::kF32;
  const std::size_t nb = out.nb_;
  const std::size_t bs2 = bs * bs;
  TBMD_REQUIRE(ws.row_cols.size() >= nb && ws.row_vals32.size() >= nb,
               "assemble_f32: workspace rows missing");
  out.row_ptr_.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    out.row_ptr_[bi + 1] = out.row_ptr_[bi] + ws.row_cols[bi].size();
  }
  const std::size_t nblocks = out.row_ptr_[nb];
  out.col_.resize(nblocks);
  out.val32_.resize(nblocks * bs2);
  [[maybe_unused]] const bool par = nb > 64;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const std::size_t at = out.row_ptr_[bi];
    std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
              out.col_.begin() + static_cast<std::ptrdiff_t>(at));
    std::copy(ws.row_vals32[bi].begin(), ws.row_vals32[bi].end(),
              out.val32_.begin() + static_cast<std::ptrdiff_t>(at * bs2));
  }
  out.refingerprint();
}

void BlockSparseMatrix::assemble_f32(const std::vector<std::uint32_t>& dims,
                                     BsrWorkspace& ws, BlockSparseMatrix& out,
                                     bool symmetric_half) {
  TBMD_REQUIRE(!dims.empty(), "assemble_f32: empty block layout");
  std::size_t n = 0;
  std::uint32_t widest = 0;
  for (const std::uint32_t d : dims) {
    n += d;
    widest = std::max(widest, d);
  }
  if (dims_uniform(dims)) {
    assemble_f32(n, dims.front(), ws, out, symmetric_half);
    return;
  }
  const std::size_t nb = dims.size();
  TBMD_REQUIRE(ws.row_cols.size() >= nb && ws.row_vals32.size() >= nb,
               "assemble_f32: workspace rows missing");
  out.n_ = n;
  out.bs_ = 0;
  out.max_bs_ = widest;
  out.nb_ = nb;
  out.sym_ = symmetric_half;
  out.val_.clear();
  out.prec_ = TilePrecision::kF32;
  out.dims_ = dims;
  out.offs_.resize(nb + 1);
  out.offs_[0] = 0;
  for (std::size_t bi = 0; bi < nb; ++bi) {
    out.offs_[bi + 1] = out.offs_[bi] + dims[bi];
  }
  out.row_ptr_.assign(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    out.row_ptr_[bi + 1] = out.row_ptr_[bi] + ws.row_cols[bi].size();
  }
  const std::size_t nblocks = out.row_ptr_[nb];
  out.col_.resize(nblocks);
  out.val_ptr_.assign(nblocks + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const std::size_t at = out.row_ptr_[bi];
    std::copy(ws.row_cols[bi].begin(), ws.row_cols[bi].end(),
              out.col_.begin() + static_cast<std::ptrdiff_t>(at));
    for (std::size_t k = at; k < out.row_ptr_[bi + 1]; ++k) {
      out.val_ptr_[k + 1] =
          static_cast<std::size_t>(dims[bi]) * dims[out.col_[k]];
    }
  }
  for (std::size_t k = 0; k < nblocks; ++k) {
    out.val_ptr_[k + 1] += out.val_ptr_[k];
  }
  out.val32_.resize(out.val_ptr_[nblocks]);
  [[maybe_unused]] const bool par = nb > 64;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const std::size_t at = out.val_ptr_[out.row_ptr_[bi]];
    TBMD_REQUIRE(ws.row_vals32[bi].size() ==
                     out.val_ptr_[out.row_ptr_[bi + 1]] - at,
                 "assemble_f32: staged row size does not match the layout");
    std::copy(ws.row_vals32[bi].begin(), ws.row_vals32[bi].end(),
              out.val32_.begin() + static_cast<std::ptrdiff_t>(at));
  }
  out.refingerprint();
}

namespace {

/// Grow-and-clear the staging rows without releasing their capacity.
void reset_workspace(BsrWorkspace& ws, std::size_t nb) {
  if (ws.row_cols.size() < nb) ws.row_cols.resize(nb);
  if (ws.row_vals.size() < nb) ws.row_vals.resize(nb);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    ws.row_cols[bi].clear();
    ws.row_vals[bi].clear();
  }
}

/// reset_workspace() for the kF32 sweeps (fp32 staging rows).
void reset_workspace_f32(BsrWorkspace& ws, std::size_t nb) {
  if (ws.row_cols.size() < nb) ws.row_cols.resize(nb);
  if (ws.row_vals32.size() < nb) ws.row_vals32.resize(nb);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    ws.row_cols[bi].clear();
    ws.row_vals32[bi].clear();
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

void BsrWorkspace::shrink(const BsrShrinkPolicy& policy) {
  const std::size_t nb = policy.block_rows;
  const std::size_t bs2 = policy.block_size * policy.block_size;
  if (row_cols.size() > nb) row_cols.resize(nb);
  if (row_vals.size() > nb) row_vals.resize(nb);
  if (row_vals32.size() > nb) row_vals32.resize(nb);
  for (auto& r : row_cols) {
    r.clear();
    r.shrink_to_fit();
  }
  for (auto& r : row_vals) {
    r.clear();
    r.shrink_to_fit();
  }
  for (auto& r : row_vals32) {
    r.clear();
    r.shrink_to_fit();
  }
  for (auto& a : acc) {
    // Sized nb * bs2 with an all-zero invariant between uses; shrinking
    // keeps the invariant (resize-to-smaller only drops zeros).
    if (a.size() > nb * bs2) a.resize(nb * bs2);
    a.shrink_to_fit();
  }
  for (auto& a : acc32) {
    if (a.size() > nb * bs2) a.resize(nb * bs2);
    a.shrink_to_fit();
  }
  for (auto& h : hit) {
    if (h.size() > nb) h.resize(nb);
    h.shrink_to_fit();
  }
  for (auto& tv : touched) {
    tv.clear();
    tv.shrink_to_fit();
  }
  for (auto* adj : {&adj_a, &adj_b}) {
    adj->ptr.clear();
    adj->ptr.shrink_to_fit();
    adj->col.clear();
    adj->col.shrink_to_fit();
    adj->tile.clear();
    adj->tile.shrink_to_fit();
    adj->trans.clear();
    adj->trans.shrink_to_fit();
    adj->fill.clear();
    adj->fill.shrink_to_fit();
  }
  // Stale domain cuts would reference rows beyond the shrunk system; the
  // owner re-derives them per step anyway.
  domains.clear();
  domains.shrink_to_fit();
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

void BlockSparseMatrix::combine_into(double alpha, const BlockSparseMatrix& b,
                                     double beta, double drop_tolerance,
                                     BlockSparseMatrix& out, BsrWorkspace& ws,
                                     double sub_tile_drop) const {
  TBMD_REQUIRE(layout_matches(b), "combine: size/block mismatch");
  TBMD_REQUIRE(sym_ == b.sym_, "combine: storage-mode mismatch");
  TBMD_REQUIRE(prec_ == b.prec_, "combine: tile-precision mismatch");
  TBMD_REQUIRE(&out != this && &out != &b,
               "combine_into: output must not alias an operand");
  if (prec_ == TilePrecision::kF32) {
    combine_f32_into(alpha, b, beta, drop_tolerance, sub_tile_drop, out, ws);
    return;
  }
  if (!uniform_blocks()) {
    reset_workspace(ws, nb_);
#pragma omp parallel for schedule(static) if (nb_ > 64)
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      auto& cols = ws.row_cols[bi];
      auto& vals = ws.row_vals[bi];
      std::size_t ka = row_ptr_[bi], ea = row_ptr_[bi + 1];
      std::size_t kb = b.row_ptr_[bi], eb = b.row_ptr_[bi + 1];
      while (ka < ea || kb < eb) {
        std::uint32_t bj;
        if (ka < ea && (kb >= eb || col_[ka] <= b.col_[kb])) {
          bj = col_[ka];
        } else {
          bj = b.col_[kb];
        }
        const std::size_t dj = dims_[bj];
        const std::size_t sz = di * dj;
        const std::size_t at = vals.size();
        vals.resize(at + sz, 0.0);
        double* tile = vals.data() + at;
        if (ka < ea && col_[ka] == bj) {
          const double* ta = block(ka);
          for (std::size_t q = 0; q < sz; ++q) tile[q] = alpha * ta[q];
          ++ka;
          if (kb < eb && b.col_[kb] == bj) {
            const double* tb = b.block(kb);
            for (std::size_t q = 0; q < sz; ++q) tile[q] += beta * tb[q];
            ++kb;
          }
        } else {
          const double* tb = b.block(kb);
          for (std::size_t q = 0; q < sz; ++q) tile[q] = beta * tb[q];
          ++kb;
        }
        // Scalar-granular truncation (off at the 0.0 default): zero small
        // entries inside the staged tile before the Frobenius test.
        if (sub_tile_drop > 0.0) {
          for (std::size_t q = 0; q < sz; ++q) {
            if (std::fabs(tile[q]) <= sub_tile_drop) tile[q] = 0.0;
          }
        }
        const double norm2 = linalg::tile_norm2_rect(di, dj, tile);
        if (keep_tile_rect(norm2, sz, drop_tolerance) ||
            (bj == bi && norm2 > 0.0)) {
          cols.push_back(bj);
        } else {
          vals.resize(at);  // rejected: roll the staged tile back
        }
      }
    }
    bsr_assemble(dims_, ws, out, sym_);
    return;
  }
  const std::size_t bs2 = bs_ * bs_;
  reset_workspace(ws, nb_);
#pragma omp parallel for schedule(static) if (nb_ > 64)
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    auto& cols = ws.row_cols[bi];
    auto& vals = ws.row_vals[bi];
    std::size_t ka = row_ptr_[bi], ea = row_ptr_[bi + 1];
    std::size_t kb = b.row_ptr_[bi], eb = b.row_ptr_[bi + 1];
    while (ka < ea || kb < eb) {
      std::uint32_t bj;
      const std::size_t at = vals.size();
      vals.resize(at + bs2, 0.0);
      double* tile = vals.data() + at;
      if (ka < ea && (kb >= eb || col_[ka] <= b.col_[kb])) {
        bj = col_[ka];
        const double* ta = block(ka);
        for (std::size_t q = 0; q < bs2; ++q) tile[q] = alpha * ta[q];
        ++ka;
        if (kb < eb && b.col_[kb] == bj) {
          const double* tb = b.block(kb);
          for (std::size_t q = 0; q < bs2; ++q) tile[q] += beta * tb[q];
          ++kb;
        }
      } else {
        bj = b.col_[kb];
        const double* tb = b.block(kb);
        for (std::size_t q = 0; q < bs2; ++q) tile[q] = beta * tb[q];
        ++kb;
      }
      if (sub_tile_drop > 0.0) {
        for (std::size_t q = 0; q < bs2; ++q) {
          if (std::fabs(tile[q]) <= sub_tile_drop) tile[q] = 0.0;
        }
      }
      const double norm2 = linalg::tile_norm2(bs_, tile);
      if (keep_tile(norm2, bs_, drop_tolerance) || (bj == bi && norm2 > 0.0)) {
        cols.push_back(bj);
      } else {
        vals.resize(at);  // rejected: roll the staged tile back
      }
    }
  }
  bsr_assemble(n_, bs_, ws, out, sym_);
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

void BlockSparseMatrix::combine_f32_into(double alpha,
                                         const BlockSparseMatrix& b,
                                         double beta, double drop_tolerance,
                                         double sub_tile_drop,
                                         BlockSparseMatrix& out,
                                         BsrWorkspace& ws) const {
  // fp32 twin of combine_into (the mixed loop's iteration update).  Each
  // output entry is combined in fp64 from the fp32 operand entries and
  // rounded exactly once on store, so the update adds no accumulation
  // error beyond the storage rounding itself.  Structure logic mirrors the
  // fp64 sweep line for line.
  if (!uniform_blocks()) {
    reset_workspace_f32(ws, nb_);
#pragma omp parallel for schedule(static) if (nb_ > 64)
    for (std::size_t bi = 0; bi < nb_; ++bi) {
      const std::size_t di = dims_[bi];
      auto& cols = ws.row_cols[bi];
      auto& vals = ws.row_vals32[bi];
      std::size_t ka = row_ptr_[bi], ea = row_ptr_[bi + 1];
      std::size_t kb = b.row_ptr_[bi], eb = b.row_ptr_[bi + 1];
      while (ka < ea || kb < eb) {
        std::uint32_t bj;
        if (ka < ea && (kb >= eb || col_[ka] <= b.col_[kb])) {
          bj = col_[ka];
        } else {
          bj = b.col_[kb];
        }
        const std::size_t dj = dims_[bj];
        const std::size_t sz = di * dj;
        const std::size_t at = vals.size();
        vals.resize(at + sz, 0.0f);
        float* tile = vals.data() + at;
        if (ka < ea && col_[ka] == bj) {
          const float* ta = block_f32(ka);
          if (kb < eb && b.col_[kb] == bj) {
            const float* tb = b.block_f32(kb);
            for (std::size_t q = 0; q < sz; ++q) {
              tile[q] = static_cast<float>(
                  alpha * static_cast<double>(ta[q]) +
                  beta * static_cast<double>(tb[q]));
            }
            ++kb;
          } else {
            for (std::size_t q = 0; q < sz; ++q) {
              tile[q] = static_cast<float>(alpha * static_cast<double>(ta[q]));
            }
          }
          ++ka;
        } else {
          const float* tb = b.block_f32(kb);
          for (std::size_t q = 0; q < sz; ++q) {
            tile[q] = static_cast<float>(beta * static_cast<double>(tb[q]));
          }
          ++kb;
        }
        if (sub_tile_drop > 0.0) {
          const float sub = static_cast<float>(sub_tile_drop);
          for (std::size_t q = 0; q < sz; ++q) {
            if (std::fabs(tile[q]) <= sub) tile[q] = 0.0f;
          }
        }
        const double norm2 = linalg::tile_norm2_rect_f32(di, dj, tile);
        if (keep_tile_rect(norm2, sz, drop_tolerance) ||
            (bj == bi && norm2 > 0.0)) {
          cols.push_back(bj);
        } else {
          vals.resize(at);  // rejected: roll the staged tile back
        }
      }
    }
    assemble_f32(dims_, ws, out, sym_);
    return;
  }
  const std::size_t bs2 = bs_ * bs_;
  reset_workspace_f32(ws, nb_);
#pragma omp parallel for schedule(static) if (nb_ > 64)
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    auto& cols = ws.row_cols[bi];
    auto& vals = ws.row_vals32[bi];
    std::size_t ka = row_ptr_[bi], ea = row_ptr_[bi + 1];
    std::size_t kb = b.row_ptr_[bi], eb = b.row_ptr_[bi + 1];
    while (ka < ea || kb < eb) {
      std::uint32_t bj;
      const std::size_t at = vals.size();
      vals.resize(at + bs2, 0.0f);
      float* tile = vals.data() + at;
      if (ka < ea && (kb >= eb || col_[ka] <= b.col_[kb])) {
        bj = col_[ka];
        const float* ta = block_f32(ka);
        if (kb < eb && b.col_[kb] == bj) {
          const float* tb = b.block_f32(kb);
          for (std::size_t q = 0; q < bs2; ++q) {
            tile[q] = static_cast<float>(alpha * static_cast<double>(ta[q]) +
                                         beta * static_cast<double>(tb[q]));
          }
          ++kb;
        } else {
          for (std::size_t q = 0; q < bs2; ++q) {
            tile[q] = static_cast<float>(alpha * static_cast<double>(ta[q]));
          }
        }
        ++ka;
      } else {
        bj = b.col_[kb];
        const float* tb = b.block_f32(kb);
        for (std::size_t q = 0; q < bs2; ++q) {
          tile[q] = static_cast<float>(beta * static_cast<double>(tb[q]));
        }
        ++kb;
      }
      if (sub_tile_drop > 0.0) {
        const float sub = static_cast<float>(sub_tile_drop);
        for (std::size_t q = 0; q < bs2; ++q) {
          if (std::fabs(tile[q]) <= sub) tile[q] = 0.0f;
        }
      }
      const double norm2 = linalg::tile_norm2_f32(bs_, tile);
      if (keep_tile(norm2, bs_, drop_tolerance) || (bj == bi && norm2 > 0.0)) {
        cols.push_back(bj);
      } else {
        vals.resize(at);  // rejected: roll the staged tile back
      }
    }
  }
  assemble_f32(n_, bs_, ws, out, sym_);
}

void BlockSparseMatrix::multiply_sym_into(const BlockSparseMatrix& b,
                                          double drop_tolerance,
                                          BlockSparseMatrix& out,
                                          BsrWorkspace& ws,
                                          BsrPattern* pattern,
                                          double sub_tile_drop,
                                          bool simd) const {
  TBMD_REQUIRE(layout_matches(b), "multiply_sym: size/block mismatch");
  TBMD_REQUIRE(sym_ && b.sym_,
               "multiply_sym: operands must be symmetric-half");
  TBMD_REQUIRE(prec_ == b.prec_, "multiply_sym: tile-precision mismatch");
  TBMD_REQUIRE(&out != this && &out != &b,
               "multiply_sym_into: output must not alias an operand");
  if (prec_ == TilePrecision::kF32) {
    multiply_sym_f32_into(b, drop_tolerance, sub_tile_drop, simd, out, ws,
                          pattern);
    return;
  }
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

  const auto nthreads = static_cast<std::size_t>(par::max_threads());
  if (ws.acc.size() < nthreads) {
    ws.acc.resize(nthreads);
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
    ++ws.stats.symbolic_builds;
    reset_workspace(ws, nb_);
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
  // Gustavson product of the operand patterns).
  reset_workspace(ws, nb_);
  // The row body lives in one always_inline lambda (per-thread accumulator
  // passed as an argument) and each scheduling variant gets its own
  // parallel region, so the default path's outlined function holds exactly
  // the pre-sharding single loop -- the hot sweep's codegen cannot be
  // perturbed by the opt-in domain branch (interleaved A/B on
  // BM_BsrSpMMSym/216 confirms parity with the pre-sharding kernel).
  const auto numeric_row = [&](std::size_t bi, std::vector<double>& acc)
      __attribute__((always_inline)) {
    const std::size_t di = row_dim(bi);
    for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
      const std::size_t bk = adj_a.col[ua];
      const std::size_t dk = row_dim(bk);
      const double* ta = block(adj_a.tile[ua]);
      const bool trans_a = adj_a.trans[ua] != 0;
      for (std::size_t ub = adj_lower_bound(adj_b, bk, bi);
           ub < adj_b.ptr[bk + 1]; ++ub) {
        const std::uint32_t bj = adj_b.col[ub];
        if (var) {
          linalg::gemm_micro_add_rect(di, dk, row_dim(bj), trans_a,
                                      adj_b.trans[ub] != 0, ta,
                                      b.block(adj_b.tile[ub]),
                                      acc.data() + bs2 * bj);
        } else {
          linalg::gemm_micro_add_t(bs_, trans_a, adj_b.trans[ub] != 0, ta,
                                   b.block(adj_b.tile[ub]),
                                   acc.data() + bs2 * bj);
        }
      }
    }
    // Gather through the pattern row: it lists exactly the columns the
    // products above touched, so the sweep also restores acc to zero.
    auto& cols = ws.row_cols[bi];
    auto& vals = ws.row_vals[bi];
    const std::size_t pe = pat.row_ptr[bi + 1];
    cols.reserve(pe - pat.row_ptr[bi]);
    for (std::size_t pp = pat.row_ptr[bi]; pp < pe; ++pp) {
      const std::uint32_t bj = pat.cols[pp];
      double* tile = acc.data() + bs2 * bj;
      // Scalar-granular truncation (off at the 0.0 default, so the
      // historical fp64 gather is byte-for-byte unchanged when unused).
      if (sub_tile_drop > 0.0) {
        const std::size_t sz = di * (var ? dims_[bj] : bs_);
        for (std::size_t q = 0; q < sz; ++q) {
          if (std::fabs(tile[q]) <= sub_tile_drop) tile[q] = 0.0;
        }
      }
      if (var) {
        const std::size_t dj = dims_[bj];
        const std::size_t sz = di * dj;
        const double norm2 = linalg::tile_norm2_rect(di, dj, tile);
        if (keep_tile_rect(norm2, sz, drop_tolerance) ||
            (bj == bi && norm2 > 0.0)) {
          cols.push_back(bj);
          vals.insert(vals.end(), tile, tile + sz);
        }
        std::fill(tile, tile + sz, 0.0);
      } else {
        const double norm2 = linalg::tile_norm2(bs_, tile);
        if (keep_tile(norm2, bs_, drop_tolerance) ||
            (bj == bi && norm2 > 0.0)) {
          cols.push_back(bj);
          vals.insert(vals.end(), tile, tile + bs2);
        }
        std::fill(tile, tile + bs2, 0.0);
      }
    }
  };
  if (sharded) {
#pragma omp parallel
    {
      const auto tid = static_cast<std::size_t>(par::thread_id());
      std::vector<double>& acc = ws.acc[tid];
      if (acc.size() < nb_ * bs2) acc.assign(nb_ * bs2, 0.0);
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
      std::vector<double>& acc = ws.acc[tid];
      if (acc.size() < nb_ * bs2) acc.assign(nb_ * bs2, 0.0);
#pragma omp for schedule(dynamic, 8)
      for (std::size_t bi = 0; bi < nb_; ++bi) numeric_row(bi, acc);
    }
  }
  if (var) {
    bsr_assemble(dims_, ws, out, true);
  } else {
    bsr_assemble(n_, bs_, ws, out, true);
  }
}

void BlockSparseMatrix::multiply_sym_f32_into(const BlockSparseMatrix& b,
                                              double drop_tolerance,
                                              double sub_tile_drop, bool simd,
                                              BlockSparseMatrix& out,
                                              BsrWorkspace& ws,
                                              BsrPattern* pattern) const {
  // fp32 twin of the symmetric-half SpMM (preconditions checked by the
  // dispatching multiply_sym_into).  The sweep structure mirrors the fp64
  // kernel line for line -- same adjacency walk, same frozen-pattern
  // gather, same per-row determinism (per-tile products are sequential
  // within a row, so results are bit-identical at any thread count for a
  // given binary) -- but tiles, accumulators and staging are fp32: half
  // the memory traffic exactly where the numeric phase is
  // bandwidth-bound.  `simd` routes tile products through the lane-vector
  // f32 kernels (default) or the generic reference loop (the NumericsSpec
  // A/B switch).
  const std::size_t bs2 = max_bs_ * max_bs_;  // accumulator tile stride
  const bool var = !uniform_blocks();

  build_sym_adjacency(*this, ws.adj_a);
  const BsrWorkspace::SymAdjacency& adj_a = ws.adj_a;
  if (&b != this) build_sym_adjacency(b, ws.adj_b);
  const BsrWorkspace::SymAdjacency& adj_b = (&b == this) ? ws.adj_a : ws.adj_b;

  BsrPattern local;
  BsrPattern& pat = pattern != nullptr ? *pattern : local;
  const bool warm = pat.valid && pat.a_fingerprint == pattern_fingerprint_ &&
                    pat.b_fingerprint == b.pattern_fingerprint_;

  const auto nthreads = static_cast<std::size_t>(par::max_threads());
  if (ws.acc32.size() < nthreads) ws.acc32.resize(nthreads);
  if (ws.hit.size() < nthreads) {
    ws.hit.resize(nthreads);
    ws.touched.resize(nthreads);
  }

  const std::vector<std::size_t>& dom = ws.domains;
  const bool sharded =
      dom.size() > 2 && dom.front() == 0 && dom.back() == nb_;

  if (!warm) {
    // Symbolic phase: identical to the fp64 kernel's (patterns are
    // structure-only, so a pattern discovered by either precision warms
    // the other).
    ++ws.stats.symbolic_builds;
    reset_workspace_f32(ws, nb_);
#pragma omp parallel
    {
      const auto tid = static_cast<std::size_t>(par::thread_id());
      std::vector<std::uint8_t>& hit = ws.hit[tid];
      std::vector<std::uint32_t>& touched = ws.touched[tid];
      if (hit.size() < nb_) hit.assign(nb_, 0);
      touched.reserve(256);
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

  // Numeric phase on the (frozen or just-built) pattern, fp32 throughout;
  // truncation thresholds stay fp64 quantities.
  reset_workspace_f32(ws, nb_);
  const float sub = static_cast<float>(sub_tile_drop);
  const auto numeric_row = [&](std::size_t bi, std::vector<float>& acc)
      __attribute__((always_inline)) {
    const std::size_t di = row_dim(bi);
    if (simd && !var && bs_ == 4) {
      // Dedicated sp-block sweep: the three-way kernel dispatch is hoisted
      // out of the product loop, and a transposed A tile is repacked once
      // per adjacency entry instead of strided-read once per product.
      // Repacking moves values without reordering any output element's
      // k-accumulation, so results stay bit-identical to the generic walk.
      for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
        const std::size_t bk = adj_a.col[ua];
        const float* ta = block_f32(adj_a.tile[ua]);
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
              false, adj_b.trans[ub] != 0, ta, b.block_f32(adj_b.tile[ub]),
              acc.data() + 16 * bj);
        }
      }
    } else {
      for (std::size_t ua = adj_a.ptr[bi]; ua < adj_a.ptr[bi + 1]; ++ua) {
        const std::size_t bk = adj_a.col[ua];
        const std::size_t dk = row_dim(bk);
        const float* ta = block_f32(adj_a.tile[ua]);
        const bool trans_a = adj_a.trans[ua] != 0;
        for (std::size_t ub = adj_lower_bound(adj_b, bk, bi);
             ub < adj_b.ptr[bk + 1]; ++ub) {
          const std::uint32_t bj = adj_b.col[ub];
          if (!simd) {
            linalg::gemm_micro_add_rect_f32_ref(
                di, dk, row_dim(bj), trans_a, adj_b.trans[ub] != 0, ta,
                b.block_f32(adj_b.tile[ub]), acc.data() + bs2 * bj);
          } else if (var) {
            linalg::gemm_micro_add_rect_f32(di, dk, row_dim(bj), trans_a,
                                            adj_b.trans[ub] != 0, ta,
                                            b.block_f32(adj_b.tile[ub]),
                                            acc.data() + bs2 * bj);
          } else {
            linalg::gemm_micro_add_t_f32(bs_, trans_a, adj_b.trans[ub] != 0,
                                         ta, b.block_f32(adj_b.tile[ub]),
                                         acc.data() + bs2 * bj);
          }
        }
      }
    }
    auto& cols = ws.row_cols[bi];
    auto& vals = ws.row_vals32[bi];
    const std::size_t pe = pat.row_ptr[bi + 1];
    cols.reserve(pe - pat.row_ptr[bi]);
    for (std::size_t pp = pat.row_ptr[bi]; pp < pe; ++pp) {
      const std::uint32_t bj = pat.cols[pp];
      float* tile = acc.data() + bs2 * bj;
      const std::size_t dj = var ? dims_[bj] : bs_;
      const std::size_t sz = di * dj;
      if (sub_tile_drop > 0.0) {
        for (std::size_t q = 0; q < sz; ++q) {
          if (std::fabs(tile[q]) <= sub) tile[q] = 0.0f;
        }
      }
      const double norm2 = linalg::tile_norm2_rect_f32(di, dj, tile);
      const bool keep = var ? keep_tile_rect(norm2, sz, drop_tolerance)
                            : keep_tile(norm2, bs_, drop_tolerance);
      if (keep || (bj == bi && norm2 > 0.0)) {
        cols.push_back(bj);
        vals.insert(vals.end(), tile, tile + sz);
      }
      std::fill(tile, tile + sz, 0.0f);
    }
  };
  if (sharded) {
#pragma omp parallel
    {
      const auto tid = static_cast<std::size_t>(par::thread_id());
      std::vector<float>& acc = ws.acc32[tid];
      if (acc.size() < nb_ * bs2) acc.assign(nb_ * bs2, 0.0f);
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
      std::vector<float>& acc = ws.acc32[tid];
      if (acc.size() < nb_ * bs2) acc.assign(nb_ * bs2, 0.0f);
#pragma omp for schedule(dynamic, 8)
      for (std::size_t bi = 0; bi < nb_; ++bi) numeric_row(bi, acc);
    }
  }
  if (var) {
    assemble_f32(dims_, ws, out, true);
  } else {
    assemble_f32(n_, bs_, ws, out, true);
  }
}

linalg::SpectralBounds BlockSparseMatrix::gershgorin_bounds() const {
  TBMD_REQUIRE(prec_ == TilePrecision::kF64,
               "gershgorin_bounds: fp64 payloads only (H is never demoted)");
  if (sym_) {
    // Upper-half pass: an off-diagonal tile (I, J) contributes its row
    // sums to the radii of block row I and -- through the implicit mirror
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
  linalg::SpectralBounds bounds;
  bool first = true;
  std::vector<double> diag(max_bs_), radius(max_bs_);
  for (std::size_t bi = 0; bi < nb_; ++bi) {
    const std::size_t di = row_dim(bi);
    std::fill(diag.begin(), diag.end(), 0.0);
    std::fill(radius.begin(), radius.end(), 0.0);
    for (std::size_t k = row_ptr_[bi]; k < row_ptr_[bi + 1]; ++k) {
      const std::size_t bj = col_[k];
      const std::size_t dj = row_dim(bj);
      const double* tile = block(k);
      for (std::size_t r = 0; r < di; ++r) {
        for (std::size_t c = 0; c < dj; ++c) {
          const double v = tile[dj * r + c];
          if (bj == bi && c == r) {
            diag[r] = v;
          } else {
            radius[r] += std::fabs(v);
          }
        }
      }
    }
    for (std::size_t r = 0; r < di; ++r) {
      const double lo = diag[r] - radius[r];
      const double hi = diag[r] + radius[r];
      if (first) {
        bounds.lo = lo;
        bounds.hi = hi;
        first = false;
      } else {
        bounds.lo = std::min(bounds.lo, lo);
        bounds.hi = std::max(bounds.hi, hi);
      }
    }
  }
  return bounds;
}

}  // namespace tbmd::onx
