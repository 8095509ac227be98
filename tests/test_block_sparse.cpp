// Tests for the blocked-sparse (BSR) substrate of the O(N) engine: dense
// round trips through symmetric-half storage, algebra against the dense
// references, tile-threshold truncation symmetry, the half SpMM with
// frozen-pattern reuse and workspace shrink, and the shared purification
// driver (SP2, its mixed-precision phase, the entry guards).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/linalg/blas.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/block_sparse.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/onx/purification.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/util/random.hpp"

namespace tbmd::onx {
namespace {

/// Random symmetric matrix with a random *block* sparsity pattern: whole
/// bs x bs tiles are either dense or absent, mirrored across the diagonal.
linalg::Matrix random_block_symmetric(std::size_t n, std::size_t bs,
                                      std::uint64_t seed,
                                      double block_sparsity = 0.6) {
  Rng rng(seed);
  linalg::Matrix m(n, n, 0.0);
  const std::size_t nb = n / bs;
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t bj = 0; bj <= bi; ++bj) {
      if (bi != bj && rng.uniform() < block_sparsity) continue;
      for (std::size_t r = 0; r < bs; ++r) {
        for (std::size_t c = 0; c < bs; ++c) {
          const double v = rng.uniform(-1, 1);
          m(bs * bi + r, bs * bj + c) = v;
          m(bs * bj + c, bs * bi + r) = v;
        }
      }
    }
  }
  return m;
}

/// Random symmetric matrix with scalar-granular sparsity (tiles straddle
/// the pattern, so conversions must zero-fill correctly).
linalg::Matrix random_symmetric(std::size_t n, std::uint64_t seed,
                                double sparsity = 0.7) {
  Rng rng(seed);
  linalg::Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (rng.uniform() > sparsity || i == j) {
        const double v = rng.uniform(-1, 1);
        m(i, j) = v;
        m(j, i) = v;
      }
    }
  }
  return m;
}

// --- conversions ---------------------------------------------------------

TEST(BlockSparse, DenseRoundTrip) {
  const linalg::Matrix a = random_block_symmetric(24, 4, 11);
  const BlockSparseMatrix b = BlockSparseMatrix::from_dense(a, 4);
  EXPECT_EQ(b.block_size(), 4u);
  EXPECT_EQ(b.block_rows(), 6u);
  EXPECT_LT(linalg::max_abs(b.to_dense() - a), 1e-15);

  // dense -> half -> dense must be an identity for any symmetric operand at
  // every admissible block size, with mirror-aware element access and fill
  // accounting that counts each mirrored tile once per side.
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    for (const std::size_t bs : {1u, 2u, 4u}) {
      const linalg::Matrix d = random_block_symmetric(24, bs, seed, 0.5);
      const BlockSparseMatrix half = BlockSparseMatrix::from_dense(d, bs);
      // Reference tile counts from the dense pattern.
      const std::size_t nb = 24 / bs;
      std::size_t tiles = 0, upper = 0;
      for (std::size_t bi = 0; bi < nb; ++bi) {
        for (std::size_t bj = 0; bj < nb; ++bj) {
          if (d(bs * bi, bs * bj) == 0.0) continue;
          ++tiles;
          if (bj >= bi) ++upper;
        }
      }
      EXPECT_EQ(half.block_count(), upper) << "bs " << bs << " seed " << seed;
      EXPECT_EQ(half.logical_block_count(), tiles);
      EXPECT_EQ(half.logical_nnz(), tiles * bs * bs);
      EXPECT_DOUBLE_EQ(half.fill_fraction(),
                       static_cast<double>(tiles * bs * bs) / (24.0 * 24.0));
      EXPECT_LT(linalg::max_abs(half.to_dense() - d), 1e-15)
          << "bs " << bs << " seed " << seed;
      // Mirror-aware scalar lookup covers the implicit lower triangle.
      for (std::size_t i = 0; i < 24; i += 5) {
        for (std::size_t j = 0; j < 24; j += 3) {
          EXPECT_DOUBLE_EQ(half.get(i, j), d(i, j)) << i << "," << j;
        }
      }
      EXPECT_DOUBLE_EQ(half.trace(), linalg::trace(d));
    }
  }
}

TEST(BlockSparse, IdentityAndTrace) {
  const BlockSparseMatrix eye = BlockSparseMatrix::identity(12, 4);
  EXPECT_EQ(eye.block_count(), 3u);
  EXPECT_DOUBLE_EQ(eye.trace(), 12.0);
  EXPECT_DOUBLE_EQ(eye.get(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(eye.get(5, 6), 0.0);
  EXPECT_EQ(eye.find_block(0, 2), nullptr);
}

// --- algebra vs dense reference ------------------------------------------

TEST(BlockSparse, CombineMatchesDense) {
  const linalg::Matrix a = random_block_symmetric(32, 4, 5);
  const linalg::Matrix b = random_block_symmetric(32, 4, 6);
  const BlockSparseMatrix sa = BlockSparseMatrix::from_dense(a, 4);
  const BlockSparseMatrix sb = BlockSparseMatrix::from_dense(b, 4);
  const BlockSparseMatrix sc = sa.combine(2.0, sb, -0.5);
  EXPECT_LT(linalg::max_abs(sc.to_dense() - (a * 2.0 + b * (-0.5))), 1e-13);
}

TEST(BlockSparse, TraceOfProductMatchesDense) {
  const linalg::Matrix a = random_symmetric(28, 7);
  const linalg::Matrix b = random_symmetric(28, 8);
  const BlockSparseMatrix sa = BlockSparseMatrix::from_dense(a, 4);
  const BlockSparseMatrix sb = BlockSparseMatrix::from_dense(b, 4);
  EXPECT_NEAR(sa.trace_of_product(sb), linalg::trace_of_product(a, b), 1e-11);
}

TEST(BlockSparse, GershgorinBoundsContainSpectrum) {
  const linalg::Matrix a = random_symmetric(32, 9);
  const BlockSparseMatrix s = BlockSparseMatrix::from_dense(a, 4);
  const auto [lo, hi] = s.gershgorin_bounds();
  const auto vals = linalg::eigvalsh(a);
  EXPECT_GE(vals.front(), lo - 1e-12);
  EXPECT_LE(vals.back(), hi + 1e-12);
}

TEST(BlockSparse, MicroKernelMatchesGenericPath) {
  // The unrolled 4x4 fast path must agree with the generic loop bit-for-bit
  // (same operation order per output element: k-major accumulation).
  Rng rng(42);
  double a[16], b[16], c4[16] = {}, cg[16] = {};
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  linalg::gemm_micro_add(4, a, b, c4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 4; ++k) s += a[4 * i + k] * b[4 * k + j];
      cg[4 * i + j] += s;
    }
  }
  for (int q = 0; q < 16; ++q) EXPECT_DOUBLE_EQ(c4[q], cg[q]) << q;
}

// --- tile truncation ------------------------------------------------------

TEST(BlockSparse, TileTruncationDropsWholeTilesSymmetrically) {
  // Build a symmetric matrix with one strong block pair and one weak block
  // pair; truncation must drop the weak tiles on BOTH sides of the
  // diagonal (symmetric pattern preserved) and keep the strong ones.
  linalg::Matrix a(12, 12, 0.0);
  auto fill_tile = [&](std::size_t bi, std::size_t bj, double scale) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        a(4 * bi + r, 4 * bj + c) = scale * (1.0 + 0.1 * (r + c));
        a(4 * bj + c, 4 * bi + r) = scale * (1.0 + 0.1 * (r + c));
      }
    }
  };
  fill_tile(0, 0, 1.0);
  fill_tile(1, 1, 1.0);
  fill_tile(2, 2, 1.0);
  fill_tile(0, 1, 0.5);    // strong: stays
  fill_tile(1, 2, 1e-9);   // weak: dropped whole
  const BlockSparseMatrix b = BlockSparseMatrix::from_dense(a, 4, 1e-6);
  EXPECT_NE(b.find_block(0, 1), nullptr);
  EXPECT_EQ(b.find_block(1, 2), nullptr);
  EXPECT_EQ(b.find_block(0, 2), nullptr);
  EXPECT_EQ(b.block_count(), 4u);
  EXPECT_EQ(b.logical_block_count(), 5u);
  // Mirrors follow their stored tile: (1, 0) reads the strong tile, (2, 1)
  // is gone with the weak one.
  EXPECT_DOUBLE_EQ(b.get(4, 1), a(4, 1));
  EXPECT_DOUBLE_EQ(b.get(8, 5), 0.0);

  // The same symmetry must hold through combine() of symmetric
  // operands: pattern and values stay exactly symmetric.
  const linalg::Matrix s = random_block_symmetric(24, 4, 31, 0.4);
  const BlockSparseMatrix sb = BlockSparseMatrix::from_dense(s, 4);
  const BlockSparseMatrix sq =
      BlockSparseMatrix::from_dense(linalg::matmul(s, s), 4);
  for (const double drop : {0.0, 1e-3, 3e-2}) {
    const BlockSparseMatrix sum = sb.combine(1.0, sq, -0.25, drop);
    const linalg::Matrix ds = sum.to_dense();
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_EQ(ds(i, j), ds(j, i)) << "drop " << drop;
      }
    }
  }
}

TEST(BlockSparse, DiagonalTilesSurviveTruncation) {
  linalg::Matrix a(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) a(i, i) = 1e-9;  // tiny but nonzero
  const BlockSparseMatrix b = BlockSparseMatrix::from_dense(a, 4, 1e-3);
  EXPECT_NEAR(b.trace(), 8e-9, 1e-20);  // trace exact despite truncation
}

// --- symmetric-half SpMM ---------------------------------------------------

TEST(BlockSparseSym, TransposedMicroKernelMatchesGenericReference) {
  // All four transpose combinations of gemm_micro_add_t against a plain
  // triple-loop reference, at the unrolled bs == 4 and a generic size.
  Rng rng(77);
  for (const std::size_t bs : {3u, 4u}) {
    std::vector<double> a(bs * bs), b(bs * bs);
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (auto& v : b) v = rng.uniform(-1, 1);
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        std::vector<double> c(bs * bs, 0.5), ref(bs * bs, 0.5);
        linalg::gemm_micro_add_t(bs, ta, tb, a.data(), b.data(), c.data());
        for (std::size_t i = 0; i < bs; ++i) {
          for (std::size_t j = 0; j < bs; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < bs; ++k) {
              const double av = ta ? a[bs * k + i] : a[bs * i + k];
              const double bv = tb ? b[bs * j + k] : b[bs * k + j];
              s += av * bv;
            }
            ref[bs * i + j] += s;
          }
        }
        for (std::size_t q = 0; q < bs * bs; ++q) {
          // Not bit-exact: -march=native FP contraction fuses the kernel
          // and the reference loop differently.  Bit-reproducibility is
          // only promised (and tested) within one kernel across the
          // cold/warm SpMM paths.
          EXPECT_NEAR(c[q], ref[q], 1e-12)
              << "bs " << bs << " ta " << ta << " tb " << tb << " q " << q;
        }
      }
    }
  }
}

// The fp32 kernels under test, each behind its own non-inlined call as the
// SpMM sweep calls it.  Inlined side by side into one function, the
// compiler may share the products of a kernel and the reference and then
// contract them into FMAs differently, which would compare two codegen
// contexts instead of two summation orders.
[[gnu::noinline]] void kernel_t_f32(std::size_t bs, bool ta, bool tb,
                                    const float* a, const float* b, float* c) {
  linalg::gemm_micro_add_t_f32(bs, ta, tb, a, b, c);
}
[[gnu::noinline]] void kernel_rect_f32(std::size_t m, std::size_t k,
                                       std::size_t n, bool ta, bool tb,
                                       const float* a, const float* b,
                                       float* c) {
  linalg::gemm_micro_add_rect_f32(m, k, n, ta, tb, a, b, c);
}
[[gnu::noinline]] void reference_f32(std::size_t m, std::size_t k,
                                     std::size_t n, bool ta, bool tb,
                                     const float* a, const float* b,
                                     float* c) {
  linalg::gemm_micro_add_rect_f32_ref(m, k, n, ta, tb, a, b, c);
}

TEST(BlockSparseSym, Fp32MicroKernelsEqualTheReference) {
  // The fp32 tile kernels (lane-vector square paths and their dispatch)
  // must reproduce the generic reference loop bit-for-bit: every path sums
  // each output element k-major into a zeroed partial before adding it to
  // C, so vectorization changes speed, never results.  C starts non-zero
  // so the accumulate step is covered too.
  Rng rng(91);
  const auto fill = [&rng](std::size_t count) {
    std::vector<float> v(count);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
    return v;
  };
  for (const std::size_t bs : {1u, 3u, 4u, 9u}) {
    const std::vector<float> a = fill(bs * bs), b = fill(bs * bs);
    const std::vector<float> c0 = fill(bs * bs);
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        std::vector<float> c = c0, ref = c0;
        kernel_t_f32(bs, ta, tb, a.data(), b.data(), c.data());
        reference_f32(bs, bs, bs, ta, tb, a.data(), b.data(), ref.data());
        EXPECT_EQ(c, ref) << "bs " << bs << " ta " << ta << " tb " << tb;
      }
    }
  }
  for (const std::size_t m : {1u, 4u, 9u}) {
    for (const std::size_t k : {1u, 4u, 9u}) {
      for (const std::size_t n : {1u, 4u, 9u}) {
        const std::vector<float> a = fill(m * k), b = fill(k * n);
        const std::vector<float> c0 = fill(m * n);
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            std::vector<float> c = c0, ref = c0;
            kernel_rect_f32(m, k, n, ta, tb, a.data(), b.data(), c.data());
            reference_f32(m, k, n, ta, tb, a.data(), b.data(), ref.data());
            EXPECT_EQ(c, ref) << m << "x" << k << "x" << n << " ta " << ta
                              << " tb " << tb;
          }
        }
      }
    }
  }
}

TEST(BlockSparseSym, MultiplySymMatchesDenseGemm) {
  // C = A * A and C = A^2 * A (commuting symmetric operands) in half
  // storage against the dense reference, across block sizes and scalar-
  // granular patterns.
  for (const std::size_t n : {8u, 16u, 48u, 92u}) {
    for (const std::size_t bs : {1u, 2u, 4u}) {
      if (n % bs != 0) continue;
      const linalg::Matrix a = random_symmetric(n, 300 + n + bs);
      const linalg::Matrix a2 = linalg::matmul(a, a);
      const BlockSparseMatrix ha = BlockSparseMatrix::from_dense(a, bs);
      const BlockSparseMatrix ha2 = BlockSparseMatrix::from_dense(a2, bs);
      BlockSparseMatrix out;
      BsrWorkspace ws;
      ha.multiply_sym_into(ha, 0.0, out, ws);
      EXPECT_LT(linalg::max_abs(out.to_dense() - a2), 1e-12)
          << "n " << n << " bs " << bs;
      ha2.multiply_sym_into(ha, 0.0, out, ws);
      EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(a2, a)),
                1e-11)
          << "n " << n << " bs " << bs;
    }
  }
}

TEST(BlockSparseSym, AlgebraMatchesDenseInHalfStorage) {
  const linalg::Matrix a = random_symmetric(32, 41);
  const linalg::Matrix b = random_symmetric(32, 42);
  const BlockSparseMatrix ha = BlockSparseMatrix::from_dense(a, 4);
  const BlockSparseMatrix hb = BlockSparseMatrix::from_dense(b, 4);
  const BlockSparseMatrix hc = ha.combine(2.0, hb, -0.5);
  EXPECT_LT(linalg::max_abs(hc.to_dense() - (a * 2.0 + b * (-0.5))), 1e-13);
  // Single upper-half trace of product (2x off-diagonal).
  EXPECT_NEAR(ha.trace_of_product(hb), linalg::trace_of_product(a, b), 1e-11);
  // The upper-half Gershgorin pass sums each row's radius in column order,
  // exactly as a dense row scan does.
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double radius = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (j != i) radius += std::fabs(a(i, j));
    }
    lo = i == 0 ? a(i, i) - radius : std::min(lo, a(i, i) - radius);
    hi = i == 0 ? a(i, i) + radius : std::max(hi, a(i, i) + radius);
  }
  const auto [hlo, hhi] = ha.gershgorin_bounds();
  EXPECT_DOUBLE_EQ(hlo, lo);
  EXPECT_DOUBLE_EQ(hhi, hi);
  // Operands on another block layout are rejected rather than silently
  // wrong.
  const BlockSparseMatrix other = BlockSparseMatrix::from_dense(b, 2);
  EXPECT_THROW((void)ha.combine(1.0, other, 1.0), Error);
  EXPECT_THROW((void)ha.trace_of_product(other), Error);
  BlockSparseMatrix out;
  BsrWorkspace ws;
  EXPECT_THROW(ha.multiply_sym_into(other, 0.0, out, ws), Error);
}

TEST(BlockSparseSym, TruncationDropsMirrorPairsStructurally) {
  // In half storage a dropped upper tile removes the mirror by
  // construction: the truncated product is exactly symmetric.
  const linalg::Matrix s = random_block_symmetric(24, 4, 51, 0.4);
  const BlockSparseMatrix hs = BlockSparseMatrix::from_dense(s, 4);
  BsrWorkspace ws;
  BlockSparseMatrix exact;
  hs.multiply_sym_into(hs, 0.0, exact, ws);
  for (const double drop : {1e-3, 3e-2}) {
    BlockSparseMatrix prod;
    hs.multiply_sym_into(hs, drop, prod, ws);
    const linalg::Matrix d = prod.to_dense();
    for (std::size_t i = 0; i < d.rows(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_EQ(d(i, j), d(j, i)) << "drop " << drop;
      }
    }
    // Diagonal tiles survive: the trace is the untruncated one.
    EXPECT_NEAR(prod.trace(), exact.trace(), 1e-10);
  }
}

TEST(BlockSparseSym, PatternCacheSkipsSymbolicPhaseAndStaysBitIdentical) {
  const linalg::Matrix a = random_symmetric(48, 61);
  const BlockSparseMatrix ha = BlockSparseMatrix::from_dense(a, 4);
  BsrWorkspace ws;
  BsrPattern pat;
  BlockSparseMatrix cold, warm;
  ha.multiply_sym_into(ha, 1e-8, cold, ws, &pat);
  EXPECT_EQ(ws.stats.symbolic_builds, 1u);
  EXPECT_EQ(ws.stats.numeric_reuses, 0u);
  EXPECT_TRUE(pat.valid);

  // Same operands: the symbolic phase is skipped and the result is
  // bit-identical (identical numeric sweep on the frozen pattern).
  ha.multiply_sym_into(ha, 1e-8, warm, ws, &pat);
  EXPECT_EQ(ws.stats.symbolic_builds, 1u);
  EXPECT_EQ(ws.stats.numeric_reuses, 1u);
  ASSERT_EQ(warm.block_count(), cold.block_count());
  EXPECT_EQ(warm.cols(), cold.cols());
  EXPECT_EQ(warm.values(), cold.values());

  // A pattern change in the operand (tile dropped by truncation) fails
  // fingerprint validation and rebuilds the entry -- never stale reuse.
  BlockSparseMatrix hb;
  BsrWorkspace other;
  ha.multiply_sym_into(ha, 3e-1, hb, other);
  ASSERT_NE(hb.pattern_fingerprint(), ha.pattern_fingerprint());
  BlockSparseMatrix out;
  hb.multiply_sym_into(hb, 1e-8, out, ws, &pat);
  EXPECT_EQ(ws.stats.symbolic_builds, 2u);
  EXPECT_EQ(ws.stats.numeric_reuses, 1u);
  EXPECT_LT(linalg::max_abs(out.to_dense() -
                            linalg::matmul(hb.to_dense(), hb.to_dense())),
            1e-11);
}

TEST(BlockSparseSym, WorkspaceReusedAcrossSizesStaysExact) {
  // One workspace serves a big, then a small, then the big product again:
  // staging rows sized for the larger system must not leak into the
  // smaller one's result.
  const linalg::Matrix big = random_symmetric(96, 71, 0.3);
  const BlockSparseMatrix hb = BlockSparseMatrix::from_dense(big, 4);
  BsrWorkspace ws;
  BlockSparseMatrix out;
  hb.multiply_sym_into(hb, 0.0, out, ws);
  EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(big, big)),
            1e-11);

  const linalg::Matrix small = random_symmetric(8, 72);
  const BlockSparseMatrix hs = BlockSparseMatrix::from_dense(small, 4);
  hs.multiply_sym_into(hs, 0.0, out, ws);
  EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(small, small)),
            1e-12);
  hb.multiply_sym_into(hb, 0.0, out, ws);
  EXPECT_LT(linalg::max_abs(out.to_dense() - linalg::matmul(big, big)),
            1e-11);
}

// --- mixed precision ------------------------------------------------------

TEST(BlockSparseSym, PrecisionConversionRoundTripsExactly) {
  const linalg::Matrix a = random_symmetric(24, 77);
  const BlockSparseMatrix h = BlockSparseMatrix::from_dense(a, 4);

  // Copying conversion: the fp32 twin shares the structure bit-for-bit
  // (patterns are structure-only, so the fingerprint must not move).
  const BlockSparseMatrix h32 = h.to_precision(TilePrecision::kF32);
  EXPECT_EQ(h32.precision(), TilePrecision::kF32);
  EXPECT_EQ(h.precision(), TilePrecision::kF64);
  EXPECT_EQ(h32.block_count(), h.block_count());
  EXPECT_EQ(h32.cols(), h.cols());
  EXPECT_EQ(h32.pattern_fingerprint(), h.pattern_fingerprint());
  ASSERT_EQ(h32.values_f32().size(), h.values().size());
  for (std::size_t q = 0; q < h.values().size(); ++q) {
    EXPECT_EQ(h32.values_f32()[q], static_cast<float>(h.values()[q])) << q;
  }

  // f32 -> f64 is exact: the round trip lands on the rounded-to-nearest
  // values, not some second approximation.
  const BlockSparseMatrix back = h32.to_precision(TilePrecision::kF64);
  EXPECT_EQ(back.precision(), TilePrecision::kF64);
  ASSERT_EQ(back.values().size(), h.values().size());
  for (std::size_t q = 0; q < h.values().size(); ++q) {
    EXPECT_EQ(back.values()[q],
              static_cast<double>(static_cast<float>(h.values()[q])));
  }

  // In-place conversion agrees with the copying one, and the fp64 readers
  // (trace, get, to_dense) see the fp32 payloads directly.
  BlockSparseMatrix m = h;
  m.convert_precision(TilePrecision::kF32);
  EXPECT_EQ(m.precision(), TilePrecision::kF32);
  EXPECT_EQ(m.values_f32(), h32.values_f32());
  EXPECT_NEAR(m.trace(), h.trace(), 1e-5);
  EXPECT_EQ(m.get(3, 7), static_cast<double>(static_cast<float>(h.get(3, 7))));
  EXPECT_LT(linalg::max_abs(m.to_dense() - a), 1e-6);
  m.convert_precision(TilePrecision::kF64);
  EXPECT_EQ(m.precision(), TilePrecision::kF64);
  EXPECT_EQ(m.values(), back.values());
}

TEST(BlockSparseSym, Fp32MultiplyTracksFp64AndReusesPatterns) {
  const linalg::Matrix a = random_symmetric(48, 83);
  const BlockSparseMatrix h = BlockSparseMatrix::from_dense(a, 4);
  BsrWorkspace ws;
  BlockSparseMatrix ref;
  h.multiply_sym_into(h, 1e-8, ref, ws);
  EXPECT_EQ(ref.precision(), TilePrecision::kF64);

  // The fp32 sweep inherits the operand precision and stays single-
  // precision close to the fp64 product (O(1) entries, 48-column rows).
  const BlockSparseMatrix h32 = h.to_precision(TilePrecision::kF32);
  BsrPattern pat;
  BlockSparseMatrix cold, warm;
  h32.multiply_sym_into(h32, 1e-8, cold, ws, &pat);
  EXPECT_EQ(cold.precision(), TilePrecision::kF32);
  EXPECT_LT(linalg::max_abs(cold.to_dense() - ref.to_dense()), 1e-4);

  // Pattern reuse covers the fp32 sweep too (patterns are structure-only
  // and shared across precisions), and warm == cold bit-for-bit.
  const std::size_t builds = ws.stats.symbolic_builds;
  h32.multiply_sym_into(h32, 1e-8, warm, ws, &pat);
  EXPECT_EQ(ws.stats.symbolic_builds, builds);
  ASSERT_EQ(warm.block_count(), cold.block_count());
  EXPECT_EQ(warm.cols(), cold.cols());
  EXPECT_EQ(warm.values_f32(), cold.values_f32());
}

// --- SP2 on the blocked substrate ----------------------------------------

class Sp2OnBsr : public ::testing::TestWithParam<double> {};

TEST_P(Sp2OnBsr, IdempotentWithExactTraceOnDiamond) {
  // T = 0 K equilibrium lattice and a 1000 K-scale thermally distorted one
  // (0.08 A displacements): SP2 run directly on the 4x4-blocked Hamiltonian
  // must produce an idempotent density matrix with trace == n_occ and the
  // exact band energy.
  const double displacement = GetParam();
  const tb::TbModel m = tb::xwch_carbon();
  System s = structures::diamond(Element::C, 3.567, 2, 2, 2);
  if (displacement > 0.0) structures::perturb(s, displacement, 1000);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});

  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const BlockSparseMatrix h = build_block_hamiltonian(m, s, table);
  const int nocc = s.total_valence_electrons() / 2;

  PurificationOptions opt;
  opt.drop_tolerance = 1e-9;
  PurificationWorkspace ws;
  const PurificationResult r = sp2_purification(h, nocc, opt, &ws);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.density.block_size(), 4u);

  // Trace pins the electron count.
  EXPECT_NEAR(r.density.trace(), static_cast<double>(nocc), 1e-5);
  // Idempotency: tr(P) == tr(P^2) at convergence.
  const linalg::Matrix p = r.density.to_dense();
  EXPECT_NEAR(linalg::trace(p) - linalg::trace(linalg::matmul(p, p)), 0.0,
              1e-5);
  // Band energy against exact diagonalization.
  const auto hd = h.to_dense();
  const auto occ =
      tb::occupy(linalg::eigvalsh(hd), s.total_valence_electrons(), 0.0);
  EXPECT_NEAR(r.band_energy, occ.band_energy, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Displacements, Sp2OnBsr,
                         ::testing::Values(0.0, 0.08));

// --- the shared purification driver ---------------------------------------

TEST(PurificationDriver, Sp2MixedPrecisionPromotesAndMatchesPm) {
  // SP2 runs through the same loop as PM, so the NumericsSpec precision
  // policy applies to it too: loose-early iterations on fp32 tiles, then a
  // promotion, and an fp64 density handed back.
  const tb::TbModel m = tb::xwch_carbon();
  const System s = structures::diamond(Element::C, 3.567, 2, 2, 2);  // C64
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const BlockSparseMatrix h = build_block_hamiltonian(m, s, table);
  const int nocc = s.total_valence_electrons() / 2;

  PurificationOptions opt;
  opt.drop_tolerance = 1e-7;
  const PurificationResult pm = palser_manolopoulos(h, nocc, opt);
  ASSERT_TRUE(pm.converged);

  opt.precision = PrecisionMode::kMixed;
  PurificationWorkspace ws;
  const PurificationResult sp2 = sp2_purification(h, nocc, opt, &ws);
  ASSERT_TRUE(sp2.converged);
  EXPECT_GT(sp2.numerics.fp32_iterations, 0);
  EXPECT_GT(sp2.numerics.fp64_iterations, 0);
  EXPECT_EQ(sp2.density.precision(), TilePrecision::kF64);
  EXPECT_NEAR(sp2.band_energy, pm.band_energy, 1e-4);
}

using Purifier = PurificationResult (*)(const BlockSparseMatrix&, int,
                                        const PurificationOptions&,
                                        PurificationWorkspace*);

class PurificationGuards : public ::testing::TestWithParam<Purifier> {};

TEST_P(PurificationGuards, TrivialAndOutOfRangeOccupations) {
  const Purifier purify = GetParam();
  const BlockSparseMatrix h = BlockSparseMatrix::identity(8, 4);

  // No electrons: the converged empty density on h's layout.
  const PurificationResult none = purify(h, 0, {}, nullptr);
  EXPECT_TRUE(none.converged);
  EXPECT_DOUBLE_EQ(none.band_energy, 0.0);
  EXPECT_EQ(none.density.size(), 8u);
  EXPECT_EQ(none.density.block_size(), 4u);
  EXPECT_EQ(none.density.block_count(), 0u);

  // Empty operand.
  const PurificationResult empty =
      purify(BlockSparseMatrix(0, 4), 0, {}, nullptr);
  EXPECT_TRUE(empty.converged);
  EXPECT_EQ(empty.density.size(), 0u);

  // More occupied states than orbitals, or a negative count.
  EXPECT_THROW((void)purify(h, 9, {}, nullptr), Error);
  EXPECT_THROW((void)purify(h, -1, {}, nullptr), Error);
}

INSTANTIATE_TEST_SUITE_P(Methods, PurificationGuards,
                         ::testing::Values(&palser_manolopoulos,
                                           &sp2_purification));

}  // namespace
}  // namespace tbmd::onx
