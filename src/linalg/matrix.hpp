#pragma once

/// \file matrix.hpp
/// \brief Dense row-major matrix type used throughout the electronic
/// structure layer.
///
/// tbmd deliberately ships its own dense linear algebra: the 1994-era TBMD
/// codes this library reproduces relied on EISPACK/LAPACK-class Householder
/// eigensolvers, and reproducing the O(N^3) cost structure faithfully (and
/// parallelizing it) is part of the paper's contribution.  See
/// eigen_sym.hpp for the solver.

#include <cstddef>
#include <vector>

#include "src/util/error.hpp"

namespace tbmd::linalg {

namespace detail {

/// Cache-line-aligned storage of `bytes` bytes.  Blocks of 128 KiB and up
/// (the sizes malloc would hand out as freshly mapped, zero-filled pages)
/// are recycled: a released block waits in a small process-wide cache and
/// the next request of the same size takes it back.  The per-step matrices
/// of an MD loop -- H, the reflectors, eigenvectors, rho -- then reuse the
/// same resident pages every step instead of page-faulting them in again
/// whenever the heap was trimmed in between.
[[nodiscard]] void* allocate_block(std::size_t bytes);
void release_block(void* p, std::size_t bytes) noexcept;

}  // namespace detail

/// Allocator of dense kernel storage: every block starts on a 64-byte cache
/// line, so rows whose length is a multiple of eight doubles start on a line
/// too and the vector kernels' loads never straddle two lines, whatever
/// address the heap hands out; large blocks are recycled (see above).
template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(detail::allocate_block(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::release_block(p, n * sizeof(T));
  }
  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

/// Cache-line-aligned vector of doubles (scratch of the dense kernels).
using AlignedVector = std::vector<double, CacheLineAllocator<double>>;

/// Dense row-major matrix of doubles.
///
/// Storage is contiguous; `row(i)` returns a pointer to the i-th row so hot
/// kernels can iterate without bounds checks.  Element access via
/// `operator()` is unchecked in release builds (checked with TBMD_REQUIRE
/// only in the `at()` accessor).
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// r x c matrix with every element set to `fill`.
  Matrix(std::size_t r, std::size_t c, double fill = 0.0)
      : rows_(r), cols_(c), data_(r * c, fill) {}

  /// n x n identity.
  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Unchecked element access.
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Checked element access (throws tbmd::Error when out of range).
  [[nodiscard]] double& at(std::size_t i, std::size_t j) {
    TBMD_REQUIRE(i < rows_ && j < cols_, "Matrix::at out of range");
    return data_[i * cols_ + j];
  }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    TBMD_REQUIRE(i < rows_ && j < cols_, "Matrix::at out of range");
    return data_[i * cols_ + j];
  }

  /// Pointer to the start of row i.
  [[nodiscard]] double* row(std::size_t i) { return data_.data() + i * cols_; }
  [[nodiscard]] const double* row(std::size_t i) const {
    return data_.data() + i * cols_;
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Set every element to `value`.
  void fill(double value) { data_.assign(data_.size(), value); }

  /// Resize to r x c, discarding contents (elements set to `fill`).
  void resize(std::size_t r, std::size_t c, double fill = 0.0) {
    rows_ = r;
    cols_ = c;
    data_.assign(r * c, fill);
  }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector data_;
};

/// Matrix transpose.
[[nodiscard]] Matrix transpose(const Matrix& a);

/// Largest absolute element.
[[nodiscard]] double max_abs(const Matrix& a);

/// Frobenius norm.
[[nodiscard]] double frobenius_norm(const Matrix& a);

/// Max |A(i,j) - A(j,i)|; 0 for an exactly symmetric matrix.
[[nodiscard]] double symmetry_defect(const Matrix& a);

/// Symmetrize in place: A <- (A + A^T)/2.  Must be square.
void symmetrize(Matrix& a);

/// Trace of a square matrix.
[[nodiscard]] double trace(const Matrix& a);

/// tr(A * B) for square same-size A, B, computed without forming A*B.
[[nodiscard]] double trace_of_product(const Matrix& a, const Matrix& b);

}  // namespace tbmd::linalg
