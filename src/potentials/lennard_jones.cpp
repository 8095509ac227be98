#include "src/potentials/lennard_jones.hpp"

#include <cmath>

#include "src/util/parallel.hpp"

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
  double energy = 0.0;

  // Partition by ATOM with a static schedule, not by half-pair index: the
  // pair count depends on when the Verlet list was last rebuilt, so a
  // pair-indexed partition changes the per-thread summation order between
  // a warm run and a checkpoint-resumed one.  Atom rows (sorted by
  // neighbor index) make the accumulation order a pure function of the
  // positions, which checkpoint bit-identity relies on.
  par::ThreadPartials<Vec3> fpartial(n);
  par::ThreadPartials<Mat3> wpartial(1);
  par::ThreadPartials<double> epartial(1);
#pragma omp parallel
  {
    Vec3* local = fpartial.local();
    Mat3& wlocal = *wpartial.local();
    double elocal = 0.0;
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < n; ++i) {
      for (const NeighborEntry& e : list_.neighbors(i)) {
        if (e.j <= i) continue;  // each unordered pair once, from its i end
        const Vec3 bond = pos[e.j] + e.shift - pos[i];
        const double r2 = norm2_sq(bond);
        if (r2 >= rc2) continue;
        const double inv_r2 = 1.0 / r2;
        const double sr2 = params_.sigma * params_.sigma * inv_r2;
        const double sr6 = sr2 * sr2 * sr2;
        const double sr12 = sr6 * sr6;
        elocal += 4.0 * params_.epsilon * (sr12 - sr6) - energy_shift_;
        // dV/dr * (1/r) = -24 eps (2 sr12 - sr6) / r^2
        const double w = -24.0 * params_.epsilon * (2.0 * sr12 - sr6) * inv_r2;
        const Vec3 f = w * bond;  // dE/dd with d = r_j - r_i
        local[i] += f;
        local[e.j] -= f;
        wlocal -= outer(bond, f);  // d (x) f_on_j
      }
    }
    *epartial.local() = elocal;
  }
  const Vec3* f = fpartial.reduce();
  for (std::size_t i = 0; i < n; ++i) result.forces[i] = f[i];
  energy += *epartial.reduce();
  result.virial += *wpartial.reduce();
  result.energy = energy;
  return result;
}

}  // namespace tbmd::potentials
