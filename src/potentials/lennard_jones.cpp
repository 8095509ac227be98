#include "src/potentials/lennard_jones.hpp"

#include <cmath>

namespace tbmd::potentials {

LennardJonesCalculator::LennardJonesCalculator(LennardJonesParams params)
    : params_(params) {
  if (params_.shift_energy) {
    const double sr6 = std::pow(params_.sigma / params_.cutoff, 6);
    energy_shift_ = 4.0 * params_.epsilon * (sr6 * sr6 - sr6);
  }
}

ForceResult LennardJonesCalculator::compute(const System& system) {
  report_ = StepReport{};
  ForceResult result;
  const std::size_t n = system.size();
  result.forces.assign(n, Vec3{});
  if (n == 0) return result;

  {
    PhaseTimer t(report_, Phase::kNeighbors);
    report_.neighbor_rebuilt = list_.ensure(system.positions(), system.cell(),
                                            {params_.cutoff, params_.skin});
  }

  PhaseTimer t(report_, Phase::kForces);
  const auto& pos = system.positions();
  const double rc2 = params_.cutoff * params_.cutoff;
  atom_energy_.resize(n);
  atom_virial_.resize(n);

  // Every atom walks its own full row (both ends of each pair are listed)
  // and is the only writer of its force, energy and virial slots; rows are
  // sorted by neighbor index, so each sum has one fixed order and the
  // result is bit-identical at any thread count and across a checkpoint
  // resume.  Each pair is evaluated from both ends, and each end keeps
  // half of the pair's energy and virial term.
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    Vec3 f{};
    double e = 0.0;
    Mat3 w{};
    for (const NeighborEntry& nb : list_.neighbors(i)) {
      const Vec3 bond = pos[nb.j] + nb.shift - pos[i];
      const double r2 = norm2_sq(bond);
      if (r2 >= rc2) continue;
      const double inv_r2 = 1.0 / r2;
      const double sr2 = params_.sigma * params_.sigma * inv_r2;
      const double sr6 = sr2 * sr2 * sr2;
      const double sr12 = sr6 * sr6;
      e += 4.0 * params_.epsilon * (sr12 - sr6) - energy_shift_;
      // dV/dr * (1/r) = -24 eps (2 sr12 - sr6) / r^2
      const double s = -24.0 * params_.epsilon * (2.0 * sr12 - sr6) * inv_r2;
      const Vec3 dedd = s * bond;  // dE/dd with d = r_j - r_i
      f += dedd;
      w -= outer(bond, dedd);  // d (x) f_on_j
    }
    result.forces[i] = f;
    atom_energy_[i] = 0.5 * e;
    atom_virial_[i] = w * 0.5;
  }
  for (std::size_t i = 0; i < n; ++i) {
    result.energy += atom_energy_[i];
    result.virial += atom_virial_[i];
  }
  return result;
}

}  // namespace tbmd::potentials
