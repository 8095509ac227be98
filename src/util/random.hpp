#pragma once

/// \file random.hpp
/// \brief Deterministic, seedable random number generation.
///
/// All stochastic code paths in tbmd (velocity initialization, structure
/// perturbation, test fixtures) take an explicit 64-bit seed so that runs,
/// tests and benchmarks are exactly reproducible.  The generator is
/// xoshiro256** seeded through SplitMix64, the conventional pairing.

#include <cstdint>

namespace tbmd {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** PRNG: fast, high-quality, 2^256-1 period.
class Rng {
 public:
  /// Construct from a single seed; state is expanded with SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal deviate (Marsaglia polar method, cached pair).
  double gaussian();

  /// Normal deviate with given mean and standard deviation.
  double gaussian(double mean, double sigma);

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t s_[4];
  bool have_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace tbmd
