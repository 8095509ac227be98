#include "src/util/random.hpp"

#include <cmath>

#include "src/util/error.hpp"

namespace tbmd {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::gaussian() {
  if (have_cached_) {
    have_cached_ = false;
    return cached_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_ = v * factor;
  have_cached_ = true;
  return u * factor;
}

double Rng::gaussian(double mean, double sigma) {
  return mean + sigma * gaussian();
}

std::uint64_t Rng::below(std::uint64_t n) {
  TBMD_REQUIRE(n > 0, "Rng::below requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

}  // namespace tbmd
