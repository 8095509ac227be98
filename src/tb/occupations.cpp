#include "src/tb/occupations.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace tbmd::tb {

namespace {

double fermi_function(double eps, double mu, double kt) {
  const double x = (eps - mu) / kt;
  if (x > kFermiTailCutoff) return 0.0;
  if (x < -kFermiTailCutoff) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

}  // namespace

Occupations occupy(const std::vector<double>& eigenvalues, int n_electrons,
                   double temperature) {
  const std::size_t n = eigenvalues.size();
  TBMD_REQUIRE(n_electrons >= 0, "occupy: negative electron count");
  TBMD_REQUIRE(static_cast<std::size_t>(n_electrons) <= 2 * n,
               "occupy: more electrons than spin-orbitals");
  TBMD_REQUIRE(std::is_sorted(eigenvalues.begin(), eigenvalues.end()),
               "occupy: eigenvalues must be ascending");

  Occupations out;
  out.weights.assign(n, 0.0);
  if (n == 0 || n_electrons == 0) return out;

  if (temperature <= 0.0) {
    // Aufbau below the HOMO's level [lo, hi), whose states share what is
    // left equally: 2 each for a level below the Fermi level, 1 for a lone
    // half-filled HOMO, a fraction for a level straddling the Fermi level.
    const auto homo = static_cast<std::size_t>((n_electrons - 1) / 2);
    std::size_t lo = homo;
    std::size_t hi = homo + 1;
    while (lo > 0 &&
           eigenvalues[homo] - eigenvalues[lo - 1] <= kDegenerateLevelWidth) {
      --lo;
    }
    while (hi < n &&
           eigenvalues[hi] - eigenvalues[homo] <= kDegenerateLevelWidth) {
      ++hi;
    }
    for (std::size_t k = 0; k < lo; ++k) out.weights[k] = 2.0;
    const auto left = static_cast<std::size_t>(n_electrons) - 2 * lo;
    const double shared =
        static_cast<double>(left) / static_cast<double>(hi - lo);
    for (std::size_t k = lo; k < hi; ++k) out.weights[k] = shared;
    const std::size_t lumo = homo + 1;
    out.fermi_level = (lumo < n)
                          ? 0.5 * (eigenvalues[homo] + eigenvalues[lumo])
                          : eigenvalues[homo];
  } else {
    const double kt = units::kBoltzmann * temperature;
    double lo = eigenvalues.front() - 20.0 * kt - 1.0;
    double hi = eigenvalues.back() + 20.0 * kt + 1.0;
    const double target = static_cast<double>(n_electrons);
    for (int iter = 0; iter < 200; ++iter) {
      const double mu = 0.5 * (lo + hi);
      double count = 0.0;
      for (const double eps : eigenvalues) {
        count += 2.0 * fermi_function(eps, mu, kt);
      }
      if (count > target) {
        hi = mu;
      } else {
        lo = mu;
      }
    }
    out.fermi_level = 0.5 * (lo + hi);
    double entropy = 0.0;  // dimensionless sum, spin included below
    for (std::size_t k = 0; k < n; ++k) {
      const double f = fermi_function(eigenvalues[k], out.fermi_level, kt);
      out.weights[k] = 2.0 * f;
      if (f > 1e-14 && f < 1.0 - 1e-14) {
        entropy += f * std::log(f) + (1.0 - f) * std::log(1.0 - f);
      }
    }
    // -T S_el with S_el = -2 k_B sum_n [f ln f + (1-f) ln(1-f)].
    out.entropy_term = 2.0 * kt * entropy;
  }

  for (std::size_t k = 0; k < n; ++k) {
    out.band_energy += out.weights[k] * eigenvalues[k];
  }
  return out;
}

}  // namespace tbmd::tb
