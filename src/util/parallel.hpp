#pragma once

/// \file parallel.hpp
/// \brief Thin OpenMP wrappers so that the rest of the code base never talks
/// to the OpenMP runtime directly and compiles cleanly without it.
///
/// Contract (pinned down by the Parallel.* tests in tests/test_util.cpp and
/// compiled in both configurations by CI via -DTBMD_NO_OPENMP=ON): every
/// wrapper behaves identically with and without -fopenmp, except that a
/// serial build reports max_threads() == 1 and treats set_num_threads() as
/// a no-op. Numerical results must not depend on the thread count, so no
/// floating-point sum is split across threads: a parallel loop writes each
/// output slot (an atom's force, a bond's dE/dd, a row's trace partial)
/// from exactly one iteration, and the slots are then summed serially in a
/// fixed order.  Every sum groups its terms the same way at any team size.

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstddef>

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

}  // namespace tbmd::par
