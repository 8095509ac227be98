#include "src/linalg/matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define TBMD_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TBMD_ASAN 1
#endif
#endif
#ifdef TBMD_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace tbmd::linalg {

namespace detail {

namespace {

constexpr std::align_val_t kLineAlign{64};
constexpr std::size_t kRecycledBytes = std::size_t{128} << 10;
/// Bounds of the cache; past them the blocks released longest ago are
/// freed first.
constexpr std::size_t kMaxCachedBlocks = 8;
constexpr std::size_t kMaxCachedBytes = std::size_t{64} << 20;

struct BlockCache {
  struct Block {
    void* p = nullptr;
    std::size_t bytes = 0;
  };
  std::mutex mu;
  std::array<Block, kMaxCachedBlocks> blocks;  // [0, count), oldest first
  std::size_t count = 0;
  std::size_t bytes = 0;

  /// Remove entry k, keeping the release order of the rest.
  Block take(std::size_t k) {
    const Block b = blocks[k];
    std::copy(blocks.begin() + static_cast<std::ptrdiff_t>(k) + 1,
              blocks.begin() + static_cast<std::ptrdiff_t>(count),
              blocks.begin() + static_cast<std::ptrdiff_t>(k));
    --count;
    bytes -= b.bytes;
    return b;
  }
};

/// A cached block is poisoned under AddressSanitizer, so a use after
/// release is still reported although the block is not freed.
void set_poisoned(void* p, std::size_t bytes, bool poisoned) {
#ifdef TBMD_ASAN
  if (poisoned) {
    __asan_poison_memory_region(p, bytes);
  } else {
    __asan_unpoison_memory_region(p, bytes);
  }
#else
  (void)p;
  (void)bytes;
  (void)poisoned;
#endif
}

/// Never destroyed: matrices with static storage may release blocks while
/// the program exits.  First built by allocate_block, which may throw.
BlockCache& block_cache() {
  static auto* cache = new BlockCache;
  return *cache;
}

}  // namespace

void* allocate_block(std::size_t bytes) {
  if (bytes >= kRecycledBytes && bytes <= kMaxCachedBytes) {
    BlockCache& c = block_cache();
    const std::lock_guard<std::mutex> lock(c.mu);
    for (std::size_t k = c.count; k-- > 0;) {
      if (c.blocks[k].bytes != bytes) continue;
      void* p = c.take(k).p;
      set_poisoned(p, bytes, false);
      return p;
    }
  }
  return ::operator new(bytes, kLineAlign);
}

void release_block(void* p, std::size_t bytes) noexcept {
  if (p != nullptr && bytes >= kRecycledBytes && bytes <= kMaxCachedBytes) {
    BlockCache& c = block_cache();
    std::array<BlockCache::Block, kMaxCachedBlocks> evicted{};
    std::size_t nevicted = 0;
    set_poisoned(p, bytes, true);
    {
      const std::lock_guard<std::mutex> lock(c.mu);
      while (c.count == kMaxCachedBlocks ||
             c.bytes + bytes > kMaxCachedBytes) {
        evicted[nevicted++] = c.take(0);
      }
      c.blocks[c.count++] = {p, bytes};
      c.bytes += bytes;
    }
    for (std::size_t k = 0; k < nevicted; ++k) {
      set_poisoned(evicted[k].p, evicted[k].bytes, false);
      ::operator delete(evicted[k].p, kLineAlign);
    }
    return;
  }
  ::operator delete(p, kLineAlign);
}

}  // namespace detail

Matrix& Matrix::operator+=(const Matrix& o) {
  TBMD_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in +=");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += o.data_[k];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  TBMD_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_, "shape mismatch in -=");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= o.data_[k];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

double max_abs(const Matrix& a) {
  double m = 0.0;
  const double* p = a.data();
  const std::size_t n = a.rows() * a.cols();
  for (std::size_t k = 0; k < n; ++k) m = std::max(m, std::fabs(p[k]));
  return m;
}

double frobenius_norm(const Matrix& a) {
  double s = 0.0;
  const double* p = a.data();
  const std::size_t n = a.rows() * a.cols();
  for (std::size_t k = 0; k < n; ++k) s += p[k] * p[k];
  return std::sqrt(s);
}

double symmetry_defect(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "symmetry_defect requires square matrix");
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      m = std::max(m, std::fabs(a(i, j) - a(j, i)));
    }
  }
  return m;
}

void symmetrize(Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "symmetrize requires square matrix");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      const double v = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = v;
      a(j, i) = v;
    }
  }
}

double trace(const Matrix& a) {
  TBMD_REQUIRE(a.rows() == a.cols(), "trace requires square matrix");
  double t = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) t += a(i, i);
  return t;
}

double trace_of_product(const Matrix& a, const Matrix& b) {
  TBMD_REQUIRE(a.rows() == a.cols() && b.rows() == b.cols() &&
                   a.rows() == b.rows(),
               "trace_of_product requires square same-size matrices");
  // tr(AB) = sum_ij A(i,j) B(j,i)
  double t = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) t += arow[j] * b(j, i);
  }
  return t;
}

}  // namespace tbmd::linalg
