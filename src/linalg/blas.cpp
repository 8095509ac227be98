#include "src/linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "src/util/parallel.hpp"

namespace tbmd::linalg {

namespace {

// Every level-3 product here -- gemm, syrk, syr2k_lower and, through them, the
// blocked tridiagonalization's trailing update and WY back-transform -- runs
// through one register-blocked micro-kernel in the GotoBLAS layout: A is
// read as k-major panels of kMr rows and B as strips of kNr lanes, each in
// place when its values for one k step are adjacent in memory, else from a
// zero-padded packed copy, and each kMr x kNr block of C is accumulated in
// registers over the whole k range before it is added to C once.  Every C
// element is therefore one fixed FMA chain over k followed by one update,
// whatever the tiling, the schedule or the thread count: the products are
// bit-identical at any thread count.

#if !defined(__GNUC__) && !defined(__clang__)
#error "the dense micro-kernel needs GCC/clang vector extensions"
#endif

/// Lane vector of the micro-kernel, as wide as the target's vector
/// registers, and the register block: kMr x kNr of C held in kMr * 2
/// accumulators (16 of 32 zmm registers with AVX-512, 12 of 16 ymm with
/// AVX, 12 of 16 xmm otherwise), leaving room for two B vectors and one
/// broadcast.  A lane vector wider than the registers would be split into
/// halves, and the accumulators would no longer fit.
#if defined(__AVX512F__)
typedef double vlane __attribute__((vector_size(64), aligned(8), may_alias));
constexpr std::size_t kMr = 8;
#elif defined(__AVX__)
typedef double vlane __attribute__((vector_size(32), aligned(8), may_alias));
constexpr std::size_t kMr = 6;
#else
typedef double vlane __attribute__((vector_size(16), aligned(8), may_alias));
constexpr std::size_t kMr = 6;
#endif
constexpr std::size_t kLanes = sizeof(vlane) / sizeof(double);
constexpr std::size_t kNr = 2 * kLanes;
/// Cache block of one parallel task: kMc x kNc of C.  The task's A panels
/// (kMc x k) stay in L2 while each B strip (k x kNr) is reused from L1 by
/// all kMc / kMr row panels.
constexpr std::size_t kMc = 96;
constexpr std::size_t kNc = 32;
static_assert(kMc % kMr == 0 && kNc % kNr == 0);

/// One k-segment of a product: C += alpha * A * B, A m x k, B k x n.
/// syr2k_lower is two segments sharing one accumulation.
struct Term {
  StridedView a;
  StridedView b;
  std::size_t k;
};

StridedView transposed(StridedView v) {
  return {v.data, v.col_stride, v.row_stride};
}

/// Uninitialized packed-operand scratch, allocated like Matrix storage: on
/// a cache line, so the strips' lane loads never straddle two lines.
class PackBuffer {
 public:
  explicit PackBuffer(std::size_t count)
      : bytes_(count * sizeof(double)),
        p_(static_cast<double*>(detail::allocate_block(bytes_))) {}
  ~PackBuffer() { detail::release_block(p_, bytes_); }
  PackBuffer(const PackBuffer&) = delete;
  PackBuffer& operator=(const PackBuffer&) = delete;
  [[nodiscard]] double* get() const { return p_; }

 private:
  std::size_t bytes_;
  double* p_;
};

/// Copy rows [i0, i0 + W) of the m x k view `x` into a k-major panel,
/// out[q * W + r] = x(i0 + r, q), with rows at or past m zero-padded.
template <std::size_t W>
void pack_panel(StridedView x, std::size_t i0, std::size_t m, std::size_t k,
                double* out) {
  const std::size_t rows = std::min(W, m - i0);
  for (std::size_t q = 0; q < k; ++q) {
    const double* src = x.data + i0 * x.row_stride + q * x.col_stride;
    double* dst = out + q * W;
    for (std::size_t r = 0; r < rows; ++r) dst[r] = src[r * x.row_stride];
    for (std::size_t r = rows; r < W; ++r) dst[r] = 0.0;
  }
}

/// acc += A_panel * B_strip over k steps: the kMr values at a + q * a_step
/// times the kNr lanes at b + q * b_step.  One FMA per term in q order per
/// element.
[[gnu::always_inline]] inline void accumulate(std::size_t k, const double* a,
                                              std::size_t a_step,
                                              const double* b,
                                              std::size_t b_step,
                                              vlane (&acc)[kMr][2]) {
  for (std::size_t q = 0; q < k; ++q) {
    vlane b0, b1;
    __builtin_memcpy(&b0, b, sizeof b0);
    __builtin_memcpy(&b1, b + kLanes, sizeof b1);
    for (std::size_t r = 0; r < kMr; ++r) {
      acc[r][0] += a[r] * b0;
      acc[r][1] += a[r] * b1;
    }
    a += a_step;
    b += b_step;
  }
}

/// C(i0 + r, j0 + s) += alpha * acc(r, s) for r < rows, s < cols; with
/// `lower` only where j0 + s <= i0 + r.
inline void store_block(const vlane (&acc)[kMr][2], double alpha, double* c,
                        std::size_t ldc, std::size_t i0, std::size_t j0,
                        std::size_t rows, std::size_t cols, bool lower) {
  if (rows == kMr && cols == kNr && (!lower || j0 + kNr <= i0 + 1)) {
    for (std::size_t r = 0; r < kMr; ++r) {
      double* cr = c + (i0 + r) * ldc + j0;
      vlane c0, c1;
      __builtin_memcpy(&c0, cr, sizeof c0);
      __builtin_memcpy(&c1, cr + kLanes, sizeof c1);
      c0 += alpha * acc[r][0];
      c1 += alpha * acc[r][1];
      __builtin_memcpy(cr, &c0, sizeof c0);
      __builtin_memcpy(cr + kLanes, &c1, sizeof c1);
    }
    return;
  }
  double block[kMr][kNr];
  __builtin_memcpy(&block, &acc, sizeof block);
  for (std::size_t r = 0; r < rows; ++r) {
    if (lower && j0 > i0 + r) continue;
    const std::size_t send = lower ? std::min(cols, i0 + r + 1 - j0) : cols;
    double* cr = c + (i0 + r) * ldc + j0;
    for (std::size_t s = 0; s < send; ++s) cr[s] += alpha * block[r][s];
  }
}

/// C += alpha * sum_t A_t * B_t over an m x n row-major C (leading
/// dimension ldc); with `lower` only the lower triangle j <= i is written.
void packed_product(std::size_t m, std::size_t n, double alpha,
                    std::initializer_list<Term> terms, double* c,
                    std::size_t ldc, bool lower) {
  std::size_t k = 0;
  bool a_in_place = true;
  bool b_in_place = true;
  for (const Term& t : terms) {
    k += t.k;
    a_in_place = a_in_place && t.a.row_stride == 1;
    b_in_place = b_in_place && t.b.col_stride == 1;
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;

  // A panel (B strip) whose kMr (kNr) values per k step are adjacent in
  // memory is read in place; the rest -- all of them, or only a ragged
  // last one -- come from zero-padded packed copies.
  const std::size_t panels = (m + kMr - 1) / kMr;
  const std::size_t strips = (n + kNr - 1) / kNr;
  const std::size_t a_direct = a_in_place ? m / kMr : 0;
  const std::size_t b_direct = b_in_place ? n / kNr : 0;
  const PackBuffer apack((panels - a_direct) * kMr * k);
  const PackBuffer bpack((strips - b_direct) * kNr * k);
  const std::size_t mtiles = (m + kMc - 1) / kMc;
  const std::size_t ntiles = (n + kNc - 1) / kNc;

  [[maybe_unused]] const bool par = !par::in_parallel() &&
                                    mtiles * ntiles > 1 &&
                                    par::worth_parallelizing(m * n, k);
#pragma omp parallel if (par)
  {
#pragma omp for schedule(static)
    for (std::size_t ip = a_direct; ip < panels; ++ip) {
      double* out = apack.get() + (ip - a_direct) * kMr * k;
      for (const Term& t : terms) {
        pack_panel<kMr>(t.a, ip * kMr, m, t.k, out);
        out += kMr * t.k;
      }
    }
#pragma omp for schedule(static)
    for (std::size_t jp = b_direct; jp < strips; ++jp) {
      double* out = bpack.get() + (jp - b_direct) * kNr * k;
      for (const Term& t : terms) {
        pack_panel<kNr>(transposed(t.b), jp * kNr, n, t.k, out);
        out += kNr * t.k;
      }
    }
#pragma omp for schedule(dynamic)
    for (std::size_t tile = 0; tile < mtiles * ntiles; ++tile) {
      const std::size_t i0 = tile / ntiles * kMc;
      const std::size_t j0 = tile % ntiles * kNc;
      if (lower && j0 >= i0 + kMc) continue;  // tile above the diagonal
      const std::size_t i1 = std::min(i0 + kMc, m);
      const std::size_t j1 = std::min(j0 + kNc, n);
      for (std::size_t j = j0; j < j1; j += kNr) {
        const bool b_direct_strip = j / kNr < b_direct;
        for (std::size_t i = i0; i < i1; i += kMr) {
          if (lower && j >= i + kMr) continue;  // block above the diagonal
          const bool a_direct_panel = i / kMr < a_direct;
          const double* ap =
              a_direct_panel ? nullptr
                             : apack.get() + (i / kMr - a_direct) * kMr * k;
          const double* bp =
              b_direct_strip ? nullptr
                             : bpack.get() + (j / kNr - b_direct) * kNr * k;
          vlane acc[kMr][2] = {};
          for (const Term& t : terms) {
            accumulate(t.k, a_direct_panel ? t.a.data + i : ap,
                       a_direct_panel ? t.a.col_stride : kMr,
                       b_direct_strip ? t.b.data + j : bp,
                       b_direct_strip ? t.b.row_stride : kNr, acc);
            if (!a_direct_panel) ap += kMr * t.k;
            if (!b_direct_strip) bp += kNr * t.k;
          }
          store_block(acc, alpha, c, ldc, i, j, std::min(kMr, m - i),
                      std::min(kNr, n - j), lower);
        }
      }
    }
  }
}

/// Lower triangle of C += alpha * A * A^T for an n x k view A.
void syrk_lower(std::size_t n, std::size_t k, double alpha, StridedView a,
                double* c, std::size_t ldc) {
  packed_product(n, n, alpha, {{a, transposed(a), k}}, c, ldc, true);
}

/// Scale the lower triangle of C by beta (the symmetric kernels never read
/// the upper triangle; it is overwritten by the final mirror).
void scale_lower(double beta, Matrix& c) {
  const std::size_t n = c.rows();
  if (beta == 1.0) return;
#pragma omp parallel for schedule(static) if (n >= 256)
  for (std::size_t i = 0; i < n; ++i) {
    double* row = c.row(i);
    if (beta == 0.0) {
      for (std::size_t j = 0; j <= i; ++j) row[j] = 0.0;
    } else {
      for (std::size_t j = 0; j <= i; ++j) row[j] *= beta;
    }
  }
}

/// Copy the lower triangle into the upper one so C is exactly symmetric.
void mirror_lower(Matrix& c) {
  const std::size_t n = c.rows();
#pragma omp parallel for schedule(static) if (n >= 256)
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = c.row(i);
    for (std::size_t j = 0; j < i; ++j) c(j, i) = row[j];
  }
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
          StridedView a, StridedView b, double* c, std::size_t ldc) {
  packed_product(m, n, alpha, {{a, b, k}}, c, ldc, false);
}

void gemm_accumulate(double alpha, const Matrix& a, const Matrix& b,
                     Matrix& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  TBMD_REQUIRE(b.rows() == k, "gemm: inner dimensions differ");
  TBMD_REQUIRE(c.rows() == m && c.cols() == n, "gemm: C has wrong shape");
  gemm(m, n, k, alpha, {a.data(), k, 1}, {b.data(), n, 1}, c.data(), n);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  gemm_accumulate(1.0, a, b, c);
  return c;
}

void syr2k_lower(std::size_t n, std::size_t k, double alpha, StridedView a,
                 StridedView b, double* c, std::size_t ldc) {
  packed_product(n, n, alpha,
                 {{a, transposed(b), k}, {b, transposed(a), k}}, c, ldc,
                 true);
}

namespace {

/// Compile-time-sized square tile product C += op(A) * op(B) with k-major
/// accumulation per output row (an N-wide accumulator the compiler keeps in
/// registers).  Instantiated at N == 9 for the spd orbital block; the sp
/// block keeps its hand-unrolled kernels below so that path's code is
/// byte-for-byte what it was before the variable-block refactor.
template <std::size_t N>
inline void micro_add_square(bool transpose_a, bool transpose_b,
                             const double* a, const double* b, double* c) {
  for (std::size_t i = 0; i < N; ++i) {
    double acc[N] = {};
    for (std::size_t k = 0; k < N; ++k) {
      const double aik = transpose_a ? a[N * k + i] : a[N * i + k];
      const double* bk = transpose_b ? b + k : b + N * k;
      const std::size_t bstep = transpose_b ? N : 1;
      for (std::size_t j = 0; j < N; ++j) acc[j] += aik * bk[bstep * j];
    }
    double* ci = c + N * i;
    for (std::size_t j = 0; j < N; ++j) ci[j] += acc[j];
  }
}

}  // namespace

void gemm_micro_add(std::size_t bs, const double* a, const double* b,
                    double* c) {
  // bs == 4 tested first: the sp models (C, Si) make it by far the hottest
  // tile edge, so it pays exactly one predicted branch.
  if (bs == 4) {
    // Fully unrolled 4x4x4: each output row is accumulated in four scalars
    // (registers), reading each A entry once and streaming B's rows.
    for (std::size_t i = 0; i < 4; ++i) {
      const double* ai = a + 4 * i;
      double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
      for (std::size_t k = 0; k < 4; ++k) {
        const double aik = ai[k];
        const double* bk = b + 4 * k;
        c0 += aik * bk[0];
        c1 += aik * bk[1];
        c2 += aik * bk[2];
        c3 += aik * bk[3];
      }
      double* ci = c + 4 * i;
      ci[0] += c0;
      ci[1] += c1;
      ci[2] += c2;
      ci[3] += c3;
    }
    return;
  }
  if (bs == 1) {
    c[0] += a[0] * b[0];
    return;
  }
  if (bs == 9) {
    micro_add_square<9>(false, false, a, b, c);
    return;
  }
  for (std::size_t i = 0; i < bs; ++i) {
    const double* ai = a + bs * i;
    double* ci = c + bs * i;
    for (std::size_t k = 0; k < bs; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b + bs * k;
      for (std::size_t j = 0; j < bs; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_micro_add_t(std::size_t bs, bool transpose_a, bool transpose_b,
                      const double* a, const double* b, double* c) {
  if (!transpose_a && !transpose_b) {
    gemm_micro_add(bs, a, b, c);
    return;
  }
  if (bs == 4) {
    // Unrolled like the nn fast path: four C-row scalars in registers,
    // k-major accumulation.  The transposed operand is read with stride 4
    // (column walk of the stored row-major tile).
    if (transpose_a && !transpose_b) {
      for (std::size_t i = 0; i < 4; ++i) {
        const double* ai = a + i;  // column i of A == row i of A^T
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          const double aik = ai[4 * k];
          const double* bk = b + 4 * k;
          c0 += aik * bk[0];
          c1 += aik * bk[1];
          c2 += aik * bk[2];
          c3 += aik * bk[3];
        }
        double* ci = c + 4 * i;
        ci[0] += c0;
        ci[1] += c1;
        ci[2] += c2;
        ci[3] += c3;
      }
    } else if (!transpose_a && transpose_b) {
      for (std::size_t i = 0; i < 4; ++i) {
        const double* ai = a + 4 * i;
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          const double aik = ai[k];
          const double* bk = b + k;  // column k of B == row k of B^T
          c0 += aik * bk[0];
          c1 += aik * bk[4];
          c2 += aik * bk[8];
          c3 += aik * bk[12];
        }
        double* ci = c + 4 * i;
        ci[0] += c0;
        ci[1] += c1;
        ci[2] += c2;
        ci[3] += c3;
      }
    } else {
      for (std::size_t i = 0; i < 4; ++i) {
        const double* ai = a + i;
        double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          const double aik = ai[4 * k];
          const double* bk = b + k;
          c0 += aik * bk[0];
          c1 += aik * bk[4];
          c2 += aik * bk[8];
          c3 += aik * bk[12];
        }
        double* ci = c + 4 * i;
        ci[0] += c0;
        ci[1] += c1;
        ci[2] += c2;
        ci[3] += c3;
      }
    }
    return;
  }
  if (bs == 1) {
    c[0] += a[0] * b[0];  // a 1 x 1 tile is its own transpose
    return;
  }
  if (bs == 9) {
    micro_add_square<9>(transpose_a, transpose_b, a, b, c);
    return;
  }
  const auto at = [&](std::size_t i, std::size_t k) {
    return transpose_a ? a[bs * k + i] : a[bs * i + k];
  };
  const auto bt = [&](std::size_t k, std::size_t j) {
    return transpose_b ? b[bs * j + k] : b[bs * k + j];
  };
  for (std::size_t i = 0; i < bs; ++i) {
    double* ci = c + bs * i;
    for (std::size_t j = 0; j < bs; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < bs; ++k) s += at(i, k) * bt(k, j);
      ci[j] += s;
    }
  }
}

void gemm_micro_add_rect(std::size_t m, std::size_t k, std::size_t n,
                         bool transpose_a, bool transpose_b, const double* a,
                         const double* b, double* c) {
  if (m == k && k == n) {
    gemm_micro_add_t(m, transpose_a, transpose_b, a, b, c);
    return;
  }
  // Generic rectangular fallback.  The stored tile of a transposed operand
  // has the swapped shape, so op(A)(i, q) walks it with the strides below.
  const std::size_t a_row = transpose_a ? 1 : k;
  const std::size_t a_col = transpose_a ? m : 1;
  const std::size_t b_row = transpose_b ? 1 : n;
  const std::size_t b_col = transpose_b ? k : 1;
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + a_row * i;
    double* ci = c + n * i;
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b + b_col * j;
      double s = 0.0;
      for (std::size_t q = 0; q < k; ++q) {
        s += ai[a_col * q] * bj[b_row * q];
      }
      ci[j] += s;
    }
  }
}

double tile_norm2_rect(std::size_t m, std::size_t n, const double* a) {
  double s = 0.0;
  for (std::size_t q = 0; q < m * n; ++q) s += a[q] * a[q];
  return s;
}

void syrk(double alpha, const Matrix& a, double beta, Matrix& c) {
  TBMD_REQUIRE(c.rows() == a.rows(), "syrk: C must be n x n");
  syrk(alpha, {a.data(), a.cols(), 1}, a.cols(), beta, c);
}

void syrk(double alpha, StridedView a, std::size_t k, double beta, Matrix& c) {
  const std::size_t n = c.rows();
  TBMD_REQUIRE(c.cols() == n, "syrk: C must be n x n");
  scale_lower(beta, c);
  syrk_lower(n, k, alpha, a, c.data(), n);
  mirror_lower(c);
}

double dot(const std::vector<double>& x, const std::vector<double>& y) {
  TBMD_REQUIRE(x.size() == y.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

double norm2(const std::vector<double>& x) { return std::sqrt(dot(x, x)); }

}  // namespace tbmd::linalg
