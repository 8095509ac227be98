#pragma once

/// \file blas.hpp
/// \brief BLAS-like dense kernels (OpenMP-parallel where profitable).
///
/// These are the building blocks the electronic-structure layer leans on:
/// GEMM for general products, SYRK/SYR2K rank-k updates for the density
/// matrix (rho = B B^T) and the blocked tridiagonalization's trailing
/// update, GEMV/SYMV for iterative methods, and a handful of level-1
/// helpers.  Every level-3 kernel runs through one packed, register-blocked
/// micro-kernel (see blas.cpp) whose results do not depend on the thread
/// count; the symmetric kernels compute only the lower triangle and mirror.

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"

namespace tbmd::linalg {

/// Read-only strided view of a dense operand: element (i, j) sits at
/// data[i * row_stride + j * col_stride].  A row-major block with leading
/// dimension ld is {p, ld, 1}; its transpose is {p, 1, ld}.
struct StridedView {
  const double* data;
  std::size_t row_stride;
  std::size_t col_stride;
};

/// C += alpha * A * B for an m x k view A and a k x n view B, with C
/// row-major (leading dimension ldc).  The raw building block under every
/// product below.  A is read in place when row_stride == 1 and B when
/// col_stride == 1; other operands are packed first, so the GEMMs of the
/// blocked back-transform never copy the eigenvector block.
void gemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
          StridedView a, StridedView b, double* c, std::size_t ldc);

/// C = A * B (shapes must conform).  Cache-blocked, OpenMP-parallel.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// C += alpha * A * B.  C must already have the product shape.
void gemm_accumulate(double alpha, const Matrix& a, const Matrix& b, Matrix& c);

/// Symmetric rank-k update C = alpha * A * A^T + beta * C.  A is n x k and
/// may be rectangular (k != n); C must be n x n.  Only the lower triangle
/// is computed, then mirrored, so C is exactly symmetric on return.
void syrk(double alpha, const Matrix& a, double beta, Matrix& c);

/// syrk on an n x k view A, n = C's order.  A row-major k x n block viewed
/// as its transpose, {p, 1, n}, is read in place, with no packed copy:
/// density_matrix hands over B^T this way.
void syrk(double alpha, StridedView a, std::size_t k, double beta, Matrix& c);

/// Symmetric rank-2k update, lower triangle only,
///   C(i, j) += alpha * sum_c [A(i, c) * B(j, c) + B(i, c) * A(j, c)],
/// both products summed in one accumulation, so C is read and written once.
/// Lets blocked_tridiag update a trailing submatrix in place from its
/// column-contiguous panels; the strict upper triangle is never touched.
void syr2k_lower(std::size_t n, std::size_t k, double alpha, StridedView a,
                 StridedView b, double* c, std::size_t ldc);

/// Tiny dense tile product C += A * B for bs x bs row-major blocks (the
/// inner kernel of the block-sparse SpMM in src/onx).  Dispatch table over
/// the orbital block sizes of the shipped models: bs == 1 (s-only), bs == 4
/// (sp, fully unrolled so the compiler keeps the 4-wide C row in registers)
/// and bs == 9 (spd) each get a dedicated path; other sizes fall back to
/// the generic triple loop.
void gemm_micro_add(std::size_t bs, const double* a, const double* b,
                    double* c);

/// Transpose-flagged variant C += op(A) * op(B) with op(X) = X or X^T per
/// flag.  The mirrored-tile kernel of the symmetric-half block-sparse SpMM:
/// a half-stored symmetric matrix keeps only tiles (I, J) with J >= I, so
/// products drawing on the lower half read the stored mirror tile
/// transposed.  All four transpose combinations are fully unrolled at
/// bs == 4, with dedicated bs == 1 and bs == 9 paths like gemm_micro_add;
/// (false, false) is exactly gemm_micro_add.  Accumulation order
/// per output element is k-major in every variant, so results are
/// bit-reproducible across the symbolic/numeric SpMM phases.
void gemm_micro_add_t(std::size_t bs, bool transpose_a, bool transpose_b,
                      const double* a, const double* b, double* c);

/// Rectangular tile product C += op(A) * op(B) for the variable-block
/// (mixed-orbital) block-sparse SpMM: op(A) is m x k, op(B) is k x n and C
/// is m x n, all row-major with their natural leading dimensions (the
/// stored tile of a transposed operand is k x m resp. n x k).  Dispatches
/// to the fully unrolled square kernels when m == k == n (1, 4 and 9 -- the
/// s, sp and spd orbital blocks -- are unrolled; see gemm_micro_add) and to
/// a generic loop otherwise.  Accumulation order per output element is
/// k-major in every path, so mixed-tile products are bit-reproducible
/// across the symbolic/numeric SpMM phases just like the uniform ones.
void gemm_micro_add_rect(std::size_t m, std::size_t k, std::size_t n,
                         bool transpose_a, bool transpose_b, const double* a,
                         const double* b, double* c);

/// Squared Frobenius norm of an m x n row-major tile (block truncation
/// criterion of the block-sparse layer).
[[nodiscard]] double tile_norm2_rect(std::size_t m, std::size_t n,
                                     const double* a);

// ---------------------------------------------------------------------------
// fp32 tile kernel family (mixed-precision purification).
//
// The loose-early purification iterations run their SpMM on fp32 tiles --
// half the memory traffic exactly where the numeric phase is
// bandwidth-bound -- and the fp32 kernels mirror the fp64 family's
// contracts: k-major accumulation per output element in every variant, so
// warm/cold and cross-thread results stay bit-identical within a given
// binary.  The square kernels are built on explicit lane vectors (GNU
// vector extensions): lanes are independent output elements, so
// vectorization never reorders any element's k-accumulation (the PR 6
// codegen lesson), and unlike `#pragma omp simd` -- which GCC lowers to
// scalarized fma chains for 4-float trip counts -- the lane type guarantees
// packed ps arithmetic.  Defined inline so the SpMM sweep's per-product
// call disappears: at ~7 ns per 4x4 tile product the call overhead is a
// measurable fraction of the kernel itself.  The fp64 kernels above are
// textually untouched so the pure-fp64 path's code (and its bit pattern)
// cannot drift.
// ---------------------------------------------------------------------------

namespace detail {

#if defined(__GNUC__) || defined(__clang__)
#define TBMD_F32_VEC_EXT 1
/// Lane vectors for the fp32 micro-kernels.  `aligned(4)` keeps loads
/// unaligned-safe for stack repack tiles; `may_alias` licenses viewing the
/// tiles' float storage through the vector type.
typedef float v4sf __attribute__((vector_size(16), aligned(4), may_alias));
typedef float v8sf __attribute__((vector_size(32), aligned(4), may_alias));
typedef double v4df __attribute__((vector_size(32), aligned(8), may_alias));
#endif

/// Compile-time-sized fp32 square tile product, k-major per output element,
/// with B in row-major (k, j) layout so the j-lanes are unit stride.
/// Portable fallback; specialized below for the lane-vector fast paths.
template <std::size_t N>
inline void micro_add_square_f32_nn(bool transpose_a, const float* a,
                                    const float* b, float* c) {
  for (std::size_t i = 0; i < N; ++i) {
    float acc[N] = {};
    for (std::size_t k = 0; k < N; ++k) {
      const float aik = transpose_a ? a[N * k + i] : a[N * i + k];
      const float* bk = b + N * k;
      for (std::size_t j = 0; j < N; ++j) acc[j] += aik * bk[j];
    }
    float* ci = c + N * i;
    for (std::size_t j = 0; j < N; ++j) ci[j] += acc[j];
  }
}

#ifdef TBMD_F32_VEC_EXT

/// 4x4 fp32 tile product: each C row is one 4-lane vector accumulator; the
/// k-loop broadcasts A(i, k) and multiply-adds B's row k.  Per lane this is
/// exactly the scalar k-major sum, so results are bit-identical to the
/// reference stride walk.
template <>
inline void micro_add_square_f32_nn<4>(bool transpose_a, const float* a,
                                       const float* b, float* c) {
  v4sf brow[4];
  __builtin_memcpy(&brow, b, sizeof brow);
  for (std::size_t i = 0; i < 4; ++i) {
    v4sf acc = {};
    for (std::size_t k = 0; k < 4; ++k) {
      const float aik = transpose_a ? a[4 * k + i] : a[4 * i + k];
      acc += aik * brow[k];
    }
    float* ci = c + 4 * i;
    v4sf cv;
    __builtin_memcpy(&cv, ci, sizeof cv);
    cv += acc;
    __builtin_memcpy(ci, &cv, sizeof cv);
  }
}

/// 9x9 fp32 tile product: an 8-lane vector accumulator plus one scalar tail
/// lane per output row; every lane (and the tail) accumulates in k-major
/// scalar order.
template <>
inline void micro_add_square_f32_nn<9>(bool transpose_a, const float* a,
                                       const float* b, float* c) {
  for (std::size_t i = 0; i < 9; ++i) {
    v8sf acc = {};
    float tail = 0.0f;
    for (std::size_t k = 0; k < 9; ++k) {
      const float aik = transpose_a ? a[9 * k + i] : a[9 * i + k];
      const float* bk = b + 9 * k;
      v8sf bv;
      __builtin_memcpy(&bv, bk, sizeof bv);
      acc += aik * bv;
      tail += aik * bk[8];
    }
    float* ci = c + 9 * i;
    v8sf cv;
    __builtin_memcpy(&cv, ci, sizeof cv);
    cv += acc;
    __builtin_memcpy(ci, &cv, sizeof cv);
    ci[8] += tail;
  }
}

#endif  // TBMD_F32_VEC_EXT

/// Transpose dispatch for the square fp32 kernel.  A transposed B is
/// repacked into a contiguous stack tile first (N^2 moves against N^3
/// multiplies) so the hot j-loop keeps unit-stride loads instead of the
/// stride-N gathers a transpose-aware inner loop would force.  Repacking
/// moves values, never reorders an element's k-accumulation: results are
/// bit-identical to the strided walk.
template <std::size_t N>
inline void micro_add_square_f32(bool transpose_a, bool transpose_b,
                                 const float* a, const float* b, float* c) {
  if (!transpose_b) {
    micro_add_square_f32_nn<N>(transpose_a, a, b, c);
    return;
  }
  float bt[N * N];
  for (std::size_t k = 0; k < N; ++k) {
    for (std::size_t j = 0; j < N; ++j) bt[N * k + j] = b[N * j + k];
  }
  micro_add_square_f32_nn<N>(transpose_a, a, bt, c);
}

}  // namespace detail

/// Generic-reference fp32 tile product: the plain triple loop with no
/// unrolled dispatch, and the path of every shape the lane-vector kernels
/// do not cover (1 x 1 tiles included).  Each output element is summed
/// k-major into a zeroed partial before it is added to C, exactly as in the
/// lane-vector kernels, so those equal this loop bit-for-bit (the kernel
/// test asserts it).
inline void gemm_micro_add_rect_f32_ref(std::size_t m, std::size_t k,
                                        std::size_t n, bool transpose_a,
                                        bool transpose_b, const float* a,
                                        const float* b, float* c) {
  const std::size_t a_row = transpose_a ? 1 : k;
  const std::size_t a_col = transpose_a ? m : 1;
  const std::size_t b_row = transpose_b ? 1 : n;
  const std::size_t b_col = transpose_b ? k : 1;
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a + a_row * i;
    float* ci = c + n * i;
    for (std::size_t j = 0; j < n; ++j) {
      const float* bj = b + b_col * j;
      float s = 0.0f;
      for (std::size_t q = 0; q < k; ++q) {
        s += ai[a_col * q] * bj[b_row * q];
      }
      ci[j] += s;
    }
  }
}

/// Transpose-flagged fp32 tile product C += op(A) * op(B) for bs x bs
/// row-major tiles (bs in {4, 9} on lane-vector fast paths, the reference
/// loop otherwise).  No 1 x 1 shortcut: `c += a * b` would contract to one
/// FMA and round differently from the zeroed-partial sum.
inline void gemm_micro_add_t_f32(std::size_t bs, bool transpose_a,
                                 bool transpose_b, const float* a,
                                 const float* b, float* c) {
  if (bs == 4) {
    detail::micro_add_square_f32<4>(transpose_a, transpose_b, a, b, c);
    return;
  }
  if (bs == 9) {
    detail::micro_add_square_f32<9>(transpose_a, transpose_b, a, b, c);
    return;
  }
  gemm_micro_add_rect_f32_ref(bs, bs, bs, transpose_a, transpose_b, a, b, c);
}

/// Rectangular fp32 tile product for the variable-block SpMM (see
/// gemm_micro_add_rect).
inline void gemm_micro_add_rect_f32(std::size_t m, std::size_t k,
                                    std::size_t n, bool transpose_a,
                                    bool transpose_b, const float* a,
                                    const float* b, float* c) {
  if (m == k && k == n) {
    gemm_micro_add_t_f32(m, transpose_a, transpose_b, a, b, c);
    return;
  }
  gemm_micro_add_rect_f32_ref(m, k, n, transpose_a, transpose_b, a, b, c);
}

/// Squared Frobenius norm of an m x n fp32 tile, accumulated in double
/// (truncation thresholds are fp64 quantities in both precision modes, and
/// a float sum over a 9 x 9 tile already loses bits that matter near the
/// keep/drop boundary).  The lane-vector variant accumulates four double
/// lanes and reduces them in a fixed order: a different (but deterministic
/// and thread-count-invariant) summation than the plain serial loop, chosen
/// because the serial double chain is the gather phase's latency bottleneck.
/// An overload of the fp64 tile_norm2_rect, so precision-generic callers
/// name one function.
[[nodiscard]] inline double tile_norm2_rect(std::size_t m, std::size_t n,
                                            const float* a) {
  const std::size_t sz = m * n;
#ifdef TBMD_F32_VEC_EXT
  detail::v4df acc = {};
  std::size_t q = 0;
  for (; q + 4 <= sz; q += 4) {
    const detail::v4df x = {static_cast<double>(a[q]),
                            static_cast<double>(a[q + 1]),
                            static_cast<double>(a[q + 2]),
                            static_cast<double>(a[q + 3])};
    acc += x * x;
  }
  double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (; q < sz; ++q) {
    s += static_cast<double>(a[q]) * static_cast<double>(a[q]);
  }
  return s;
#else
  double s = 0.0;
  for (std::size_t q = 0; q < sz; ++q) {
    s += static_cast<double>(a[q]) * static_cast<double>(a[q]);
  }
  return s;
#endif
}

/// Dot product.
[[nodiscard]] double dot(const std::vector<double>& x,
                         const std::vector<double>& y);

/// Euclidean norm.
[[nodiscard]] double norm2(const std::vector<double>& x);

}  // namespace tbmd::linalg
