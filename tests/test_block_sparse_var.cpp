// Tests for the variable-block-row (mixed-tile) mode of BlockSparseMatrix:
// uniform normalization, dense round trips through symmetric-half storage,
// algebra against the dense reference with frozen-pattern reuse (on both
// tile precisions), and the rectangular truncation criterion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/linalg/blas.hpp"
#include "src/onx/block_sparse.hpp"
#include "src/util/random.hpp"

namespace tbmd::onx {
namespace {

/// A mixed 1/4/9 layout, the orbital-count triple of an s / sp / spd
/// species mix.
std::vector<std::uint32_t> mixed_dims() { return {4, 1, 9, 4, 1, 9, 4}; }

std::size_t dims_sum(const std::vector<std::uint32_t>& dims) {
  std::size_t n = 0;
  for (const std::uint32_t d : dims) n += d;
  return n;
}

/// Random symmetric matrix whose sparsity pattern is granular in the
/// *variable* tiles of `dims`: a tile is dense or absent as a whole,
/// mirrored across the diagonal.
linalg::Matrix random_var_symmetric(const std::vector<std::uint32_t>& dims,
                                    std::uint64_t seed,
                                    double block_sparsity = 0.5) {
  Rng rng(seed);
  const std::size_t nb = dims.size();
  std::vector<std::size_t> off(nb + 1, 0);
  for (std::size_t bi = 0; bi < nb; ++bi) off[bi + 1] = off[bi] + dims[bi];
  linalg::Matrix m(off[nb], off[nb], 0.0);
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t bj = 0; bj <= bi; ++bj) {
      if (bi != bj && rng.uniform() < block_sparsity) continue;
      for (std::size_t r = 0; r < dims[bi]; ++r) {
        for (std::size_t c = 0; c < dims[bj]; ++c) {
          if (bi == bj && c > r) continue;
          const double v = rng.uniform(-1, 1);
          m(off[bi] + r, off[bj] + c) = v;
          m(off[bj] + c, off[bi] + r) = v;
        }
      }
    }
  }
  return m;
}

TEST(BlockSparseVar, UniformDimsNormalizeToUniformMode) {
  const std::vector<std::uint32_t> dims = {4, 4, 4};
  const BlockSparseMatrix m(dims);
  EXPECT_TRUE(m.uniform_blocks());
  EXPECT_EQ(m.block_size(), 4u);
  EXPECT_EQ(m.max_block_size(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_TRUE(m.block_dims().empty());

  const BlockSparseMatrix id = BlockSparseMatrix::identity(dims);
  EXPECT_TRUE(id.uniform_blocks());
  EXPECT_NEAR(id.trace(), 12.0, 1e-15);
}

TEST(BlockSparseVar, MixedLayoutBasics) {
  const auto dims = mixed_dims();
  const BlockSparseMatrix m(dims);
  EXPECT_FALSE(m.uniform_blocks());
  EXPECT_EQ(m.block_size(), 0u);
  EXPECT_EQ(m.max_block_size(), 9u);
  EXPECT_EQ(m.size(), dims_sum(dims));
  EXPECT_EQ(m.block_rows(), dims.size());
  EXPECT_EQ(m.row_dim(2), 9u);
  EXPECT_EQ(m.row_offset(2), 5u);
}

TEST(BlockSparseVar, IdentityAndIdentityLike) {
  const auto dims = mixed_dims();
  const BlockSparseMatrix id = BlockSparseMatrix::identity(dims);
  const std::size_t n = dims_sum(dims);
  EXPECT_NEAR(id.trace(), static_cast<double>(n), 1e-15);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(id.get(i, j), i == j ? 1.0 : 0.0);
    }
  }
  const BlockSparseMatrix like = BlockSparseMatrix::identity_like(id);
  EXPECT_EQ(like.pattern_fingerprint(), id.pattern_fingerprint());
  EXPECT_NEAR(like.trace(), static_cast<double>(n), 1e-15);
}

TEST(BlockSparseVar, DenseRoundTrip) {
  const auto dims = mixed_dims();
  std::vector<std::size_t> off(dims.size() + 1, 0);
  for (std::size_t bi = 0; bi < dims.size(); ++bi) {
    off[bi + 1] = off[bi] + dims[bi];
  }
  for (const std::uint64_t seed : {3u, 7u}) {
    const linalg::Matrix a = random_var_symmetric(dims, seed);
    const BlockSparseMatrix b = BlockSparseMatrix::from_dense(a, dims);
    EXPECT_FALSE(b.uniform_blocks());
    EXPECT_LT(linalg::max_abs(b.to_dense() - a), 1e-15) << "seed " << seed;

    // Only the upper block triangle is stored; the fill accounting counts
    // each mirrored tile once per side.
    std::size_t tiles = 0, upper = 0, entries = 0;
    for (std::size_t bi = 0; bi < dims.size(); ++bi) {
      for (std::size_t bj = 0; bj < dims.size(); ++bj) {
        if (a(off[bi], off[bj]) == 0.0) continue;
        ++tiles;
        entries += std::size_t{dims[bi]} * dims[bj];
        if (bj >= bi) ++upper;
      }
    }
    EXPECT_EQ(b.block_count(), upper) << "seed " << seed;
    EXPECT_EQ(b.logical_block_count(), tiles);
    EXPECT_EQ(b.logical_nnz(), entries);

    // Mirror-aware entrywise lookup agrees on both triangles.
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        EXPECT_EQ(b.get(i, j), a(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(BlockSparseVar, TraceOfProductMatchesDense) {
  const auto dims = mixed_dims();
  const linalg::Matrix a = random_var_symmetric(dims, 17);
  const linalg::Matrix c = random_var_symmetric(dims, 19);
  const double ref = linalg::trace_of_product(a, c);
  const BlockSparseMatrix ba = BlockSparseMatrix::from_dense(a, dims);
  const BlockSparseMatrix bc = BlockSparseMatrix::from_dense(c, dims);
  EXPECT_NEAR(ba.trace_of_product(bc), ref, 1e-11);
}

// The algebra suites below run on both tile precisions: fp64 against the
// dense reference at roundoff, fp32 within the single-precision bound of
// Fp32MultiplyTracksFp64AndReusesPatterns.
class BlockSparseVarAlgebra : public ::testing::TestWithParam<TilePrecision> {
 protected:
  [[nodiscard]] double bound(double fp64_bound) const {
    return GetParam() == TilePrecision::kF32 ? 1e-4 : fp64_bound;
  }
};

TEST_P(BlockSparseVarAlgebra, CombineMatchesDense) {
  const auto dims = mixed_dims();
  const linalg::Matrix a = random_var_symmetric(dims, 23);
  const linalg::Matrix c = random_var_symmetric(dims, 29);
  const BlockSparseMatrix ba =
      BlockSparseMatrix::from_dense(a, dims).to_precision(GetParam());
  const BlockSparseMatrix bc =
      BlockSparseMatrix::from_dense(c, dims).to_precision(GetParam());
  const BlockSparseMatrix r = ba.combine(1.5, bc, -0.5);
  EXPECT_EQ(r.precision(), GetParam());
  EXPECT_FALSE(r.uniform_blocks());
  linalg::Matrix ref(a.rows(), a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ref(i, j) = 1.5 * a(i, j) - 0.5 * c(i, j);
    }
  }
  EXPECT_LT(linalg::max_abs(r.to_dense() - ref), bound(1e-14));
}

TEST_P(BlockSparseVarAlgebra, SymmetricHalfMultiplyMatchesFull) {
  const auto dims = mixed_dims();
  const linalg::Matrix a = random_var_symmetric(dims, 37);
  const BlockSparseMatrix half =
      BlockSparseMatrix::from_dense(a, dims).to_precision(GetParam());
  BlockSparseMatrix out;
  BsrWorkspace ws;
  half.multiply_sym_into(half, 0.0, out, ws, nullptr);
  EXPECT_EQ(out.precision(), GetParam());
  const linalg::Matrix ref = linalg::matmul(a, a);
  EXPECT_LT(linalg::max_abs(out.to_dense() - ref), bound(1e-12));
}

TEST_P(BlockSparseVarAlgebra, FrozenPatternReuseIsBitIdentical) {
  const auto dims = mixed_dims();
  const linalg::Matrix a = random_var_symmetric(dims, 41);
  const BlockSparseMatrix half =
      BlockSparseMatrix::from_dense(a, dims).to_precision(GetParam());
  BsrWorkspace ws;
  BsrPattern pattern;
  BlockSparseMatrix cold, warm;
  half.multiply_sym_into(half, 1e-8, cold, ws, &pattern);
  EXPECT_EQ(ws.stats.symbolic_builds, 1u);
  half.multiply_sym_into(half, 1e-8, warm, ws, &pattern);
  EXPECT_EQ(ws.stats.symbolic_builds, 1u);
  EXPECT_EQ(ws.stats.numeric_reuses, 1u);
  EXPECT_EQ(warm.cols(), cold.cols());
  // Bit-identical in either precision.
  EXPECT_EQ(warm.values(), cold.values());
  EXPECT_EQ(warm.values_f32(), cold.values_f32());
}

INSTANTIATE_TEST_SUITE_P(
    Precisions, BlockSparseVarAlgebra,
    ::testing::Values(TilePrecision::kF64, TilePrecision::kF32),
    [](const ::testing::TestParamInfo<TilePrecision>& info) {
      return info.param == TilePrecision::kF32 ? "fp32" : "fp64";
    });

TEST(BlockSparseVar, RectTruncationDropsSmallTiles) {
  // Two tiles: a 4x9 tile of entries eps/2 must be dropped at tolerance
  // eps (RMS below eps), a tile with one large entry must survive.
  const std::vector<std::uint32_t> dims = {4, 9};
  linalg::Matrix a(13, 13, 0.0);
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 4; c < 13; ++c) {
      a(r, c) = 0.5 * eps;
      a(c, r) = 0.5 * eps;
    }
  }
  a(0, 0) = 1.0;
  a(4, 4) = 1.0;
  const BlockSparseMatrix kept = BlockSparseMatrix::from_dense(a, dims, 0.0);
  EXPECT_EQ(kept.block_count(), 3u);          // two diagonal + one upper
  EXPECT_EQ(kept.logical_block_count(), 4u);  // ... and its mirror
  const BlockSparseMatrix trunc =
      BlockSparseMatrix::from_dense(a, dims, eps);
  EXPECT_EQ(trunc.block_count(), 2u);  // diagonal tiles only
}

TEST(BlockSparseVar, GershgorinContainsSpectrumEdges) {
  const auto dims = mixed_dims();
  const linalg::Matrix a = random_var_symmetric(dims, 43);
  const auto bf = BlockSparseMatrix::from_dense(a, dims).gershgorin_bounds();
  // The upper-half pass (mirrored column sums) matches a dense row scan.
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double radius = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (j != i) radius += std::fabs(a(i, j));
    }
    lo = i == 0 ? a(i, i) - radius : std::min(lo, a(i, i) - radius);
    hi = i == 0 ? a(i, i) + radius : std::max(hi, a(i, i) + radius);
  }
  EXPECT_NEAR(bf.lo, lo, 1e-12);
  EXPECT_NEAR(bf.hi, hi, 1e-12);
  // Row sums bound the spectrum: check against the largest |row sum|.
  double max_abs_row = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += std::fabs(a(i, j));
    max_abs_row = std::max(max_abs_row, s);
  }
  EXPECT_GE(bf.hi, -max_abs_row);
  EXPECT_LE(bf.lo, max_abs_row);
}

}  // namespace
}  // namespace tbmd::onx
