#pragma once

/// \file parallel.hpp
/// \brief Thin OpenMP wrappers so that the rest of the code base never talks
/// to the OpenMP runtime directly and compiles cleanly without it.
///
/// Contract (pinned down by the Parallel.* tests in tests/test_util.cpp and
/// compiled in both configurations by CI via -DTBMD_NO_OPENMP=ON): every
/// wrapper behaves identically with and without -fopenmp, except that a
/// serial build reports max_threads() == 1 and treats set_num_threads() as
/// a no-op. Numerical results must not depend on the thread count.

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstddef>
#include <vector>

namespace tbmd::par {

/// Number of threads the OpenMP runtime will use for the next parallel
/// region (1 when compiled without OpenMP).
[[nodiscard]] inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Set the number of threads used by subsequent parallel regions.
inline void set_num_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Calling thread's id inside a parallel region (0 outside / without OpenMP).
[[nodiscard]] inline int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Number of threads in the current team: the actual size inside a parallel
/// region, 1 outside a region or without OpenMP.  Use this (not
/// max_threads()) to partition work among the members of an open region.
[[nodiscard]] inline int team_size() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// True inside an active parallel region (false without OpenMP).  Kernels
/// called there run on the calling thread alone rather than open a nested
/// region.
[[nodiscard]] inline bool in_parallel() {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// True when OpenMP is enabled in this build.
[[nodiscard]] inline constexpr bool openmp_enabled() {
#ifdef _OPENMP
  return true;
#else
  return false;
#endif
}

/// Heuristic: parallelize a loop only when the trip count times the unit
/// cost estimate is worth the fork-join overhead.
[[nodiscard]] inline bool worth_parallelizing(std::size_t trip_count,
                                              std::size_t flops_per_trip) {
  return trip_count * flops_per_trip > 50'000;
}

/// Merge per-thread partial arrays into the first one with a parallel
/// binary-tree reduction.  `buffers` holds `buffers.size() / n` partials of
/// `n` elements each, stored contiguously; after the call the first `n`
/// elements contain the elementwise sum.  Each of the ceil(log2(T)) passes
/// halves the live partial count and parallelizes over its element updates,
/// so the reduction costs O(n log T) work with no serialized critical
/// section -- the replacement for the `#pragma omp critical` whole-array
/// merges the force kernels used to do.  T must not exceed the partial
/// count the caller allocated; call from OUTSIDE a parallel region.
template <typename T>
inline void tree_reduce_partials(std::vector<T>& buffers, std::size_t n);

/// Per-thread partial accumulators for force-style kernels.  Construction
/// zero-initializes one length-`n` slice per possible thread; inside a
/// parallel region each thread accumulates into `local()` (its own slice),
/// and after the region `reduce()` merges every slice into the first one
/// with the parallel tree reduction and returns it.  Works for any
/// zero-default-constructible additive type (Vec3, Mat3, double); use
/// n == 1 for plain scalar/tensor sums.
template <typename T>
class ThreadPartials {
 public:
  explicit ThreadPartials(std::size_t n)
      : n_(n), buf_(static_cast<std::size_t>(max_threads()) * n) {}

  /// The calling thread's slice (valid inside and outside parallel regions).
  [[nodiscard]] T* local() {
    return buf_.data() + static_cast<std::size_t>(thread_id()) * n_;
  }

  /// Merge all slices (call from OUTSIDE a parallel region, once).
  [[nodiscard]] const T* reduce() {
    tree_reduce_partials(buf_, n_);
    return buf_.data();
  }

 private:
  std::size_t n_;
  std::vector<T> buf_;
};

template <typename T>
inline void tree_reduce_partials(std::vector<T>& buffers, std::size_t n) {
  if (n == 0) return;
  std::size_t live = buffers.size() / n;
  while (live > 1) {
    const std::size_t stride = (live + 1) / 2;  // partial k merges k+stride
    const std::size_t merged = live - stride;
    [[maybe_unused]] const bool par = worth_parallelizing(merged * n, 8);
#pragma omp parallel for schedule(static) if (par)
    for (std::size_t e = 0; e < merged * n; ++e) {
      const std::size_t k = e / n;
      const std::size_t idx = e - k * n;
      buffers[k * n + idx] += buffers[(k + stride) * n + idx];
    }
    live = stride;
  }
}

}  // namespace tbmd::par
