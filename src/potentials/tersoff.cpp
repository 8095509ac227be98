#include "src/potentials/tersoff.hpp"

#include <cmath>
#include <numbers>

#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::potentials {

TersoffParams tersoff_silicon() {
  TersoffParams p;
  p.a = 1830.8;
  p.b = 471.18;
  p.lambda1 = 2.4799;
  p.lambda2 = 1.73222;
  p.lambda3 = 0.0;
  p.beta = 1.1e-6;
  p.n = 0.78734;
  p.c = 100390.0;
  p.d = 16.217;
  p.h = -0.59825;
  p.gamma = 1.0;
  p.m = 3;
  p.r_cut = 2.85;
  p.d_cut = 0.15;
  return p;
}

TersoffParams tersoff_carbon() {
  TersoffParams p;
  p.a = 1393.6;
  p.b = 346.74;
  p.lambda1 = 3.4879;
  p.lambda2 = 2.2119;
  p.lambda3 = 0.0;
  p.beta = 1.5724e-7;
  p.n = 0.72751;
  p.c = 38049.0;
  p.d = 4.3484;
  p.h = -0.57058;
  p.gamma = 1.0;
  p.m = 3;
  p.r_cut = 1.95;
  p.d_cut = 0.15;
  return p;
}

namespace {

/// Smooth cutoff fC and its radial derivative.
struct Cut {
  double f = 0.0;
  double df = 0.0;
};

Cut cutoff_fn(const TersoffParams& p, double r) {
  const double lo = p.r_cut - p.d_cut;
  const double hi = p.r_cut + p.d_cut;
  if (r <= lo) return {1.0, 0.0};
  if (r >= hi) return {0.0, 0.0};
  const double arg = 0.5 * std::numbers::pi * (r - p.r_cut) / p.d_cut;
  return {0.5 - 0.5 * std::sin(arg),
          -0.25 * std::numbers::pi / p.d_cut * std::cos(arg)};
}

/// Angular function g(cos theta) and dg/dcos.
struct Ang {
  double g = 0.0;
  double dg = 0.0;
};

Ang angular_fn(const TersoffParams& p, double cos_t) {
  const double u = p.h - cos_t;
  const double den = p.d * p.d + u * u;
  const double c2 = p.c * p.c;
  return {p.gamma * (1.0 + c2 / (p.d * p.d) - c2 / den),
          -p.gamma * 2.0 * c2 * u / (den * den)};
}

}  // namespace

TersoffCalculator::TersoffCalculator(TersoffParams params) : params_(params) {
  TBMD_REQUIRE(params_.outer_cutoff() > 0.0, "tersoff: cutoff must be set");
}

ForceResult TersoffCalculator::compute(const System& system) {
  report_ = StepReport{};
  ForceResult result;
  const std::size_t natoms = system.size();
  result.forces.assign(natoms, Vec3{});
  if (natoms == 0) return result;

  {
    PhaseTimer t(report_, Phase::kNeighbors);
    report_.neighbor_rebuilt =
        list_.ensure(system.positions(), system.cell(),
                     {params_.outer_cutoff(), params_.skin});
  }

  PhaseTimer t(report_, Phase::kForces);
  const TersoffParams& p = params_;
  const auto& pos = system.positions();
  const double rc = p.outer_cutoff();
  double energy = 0.0;

  par::ThreadPartials<Vec3> fpartial(natoms);
  par::ThreadPartials<Mat3> wpartial(1);
  par::ThreadPartials<double> epartial(1);
#pragma omp parallel
  {
    Vec3* local = fpartial.local();
    Mat3& wlocal = *wpartial.local();
    double elocal = 0.0;

    // schedule(static), not dynamic: the thread-to-atom assignment must be
    // a pure function of the atom count so per-thread partial sums (and
    // hence the reduced forces) are reproducible across runs and restarts.
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < natoms; ++i) {
      const auto& nbrs = list_.neighbors(i);
      // Cache bond vectors and distances for atom i's neighborhood.
      std::vector<Vec3> dv(nbrs.size());
      std::vector<double> dist(nbrs.size());
      for (std::size_t a = 0; a < nbrs.size(); ++a) {
        dv[a] = pos[nbrs[a].j] + nbrs[a].shift - pos[i];
        dist[a] = norm(dv[a]);
      }

      for (std::size_t a = 0; a < nbrs.size(); ++a) {
        const double rij = dist[a];
        if (rij >= rc) continue;
        const std::size_t j = nbrs[a].j;
        const Vec3& dij = dv[a];
        const Cut fcij = cutoff_fn(p, rij);
        const double fr = p.a * std::exp(-p.lambda1 * rij);
        const double fa = -p.b * std::exp(-p.lambda2 * rij);
        const double dfr = -p.lambda1 * fr;
        const double dfa = -p.lambda2 * fa;

        // zeta_ij over third atoms k.
        double zeta = 0.0;
        for (std::size_t bq = 0; bq < nbrs.size(); ++bq) {
          if (bq == a) continue;
          const double rik = dist[bq];
          if (rik >= rc) continue;
          const Cut fcik = cutoff_fn(p, rik);
          if (fcik.f == 0.0) continue;
          const double cos_t = dot(dij, dv[bq]) / (rij * rik);
          const Ang ang = angular_fn(p, cos_t);
          double xi = 1.0;
          if (p.lambda3 != 0.0) {
            const double l3 = std::pow(p.lambda3, p.m);
            xi = std::exp(l3 * std::pow(rij - rik, p.m));
          }
          zeta += fcik.f * ang.g * xi;
        }

        // Bond order and its zeta-derivative.
        double bij = 1.0;
        double dbij_dzeta = 0.0;
        if (zeta > 0.0) {
          const double bz = std::pow(p.beta, p.n) * std::pow(zeta, p.n);
          const double base = 1.0 + bz;
          bij = std::pow(base, -1.0 / (2.0 * p.n));
          dbij_dzeta = -0.5 * bij / base * bz / zeta;
        }

        // Pair part: E_ij = 1/2 fC (fR + b fA).
        elocal += 0.5 * fcij.f * (fr + bij * fa);
        const double dpair =
            0.5 * (fcij.df * (fr + bij * fa) + fcij.f * (dfr + bij * dfa));
        const Vec3 upair = (dpair / rij) * dij;  // dE/dd_ij
        local[i] += upair;
        local[j] -= upair;
        wlocal -= outer(dij, upair);

        // Bond-order part: dE/dzeta * dzeta/d{d_ij, d_ik}.
        const double dez = 0.5 * fcij.f * fa * dbij_dzeta;
        if (dez == 0.0 || zeta == 0.0) continue;

        for (std::size_t bq = 0; bq < nbrs.size(); ++bq) {
          if (bq == a) continue;
          const double rik = dist[bq];
          if (rik >= rc) continue;
          const Cut fcik = cutoff_fn(p, rik);
          if (fcik.f == 0.0 && fcik.df == 0.0) continue;
          const std::size_t k = nbrs[bq].j;
          const Vec3& dik = dv[bq];
          const double cos_t = dot(dij, dik) / (rij * rik);
          const Ang ang = angular_fn(p, cos_t);

          double xi = 1.0;
          double dxi_drij = 0.0;
          double dxi_drik = 0.0;
          if (p.lambda3 != 0.0) {
            const double l3 = std::pow(p.lambda3, p.m);
            const double diff = rij - rik;
            xi = std::exp(l3 * std::pow(diff, p.m));
            const double slope =
                l3 * p.m * std::pow(diff, p.m - 1) * xi;
            dxi_drij = slope;
            dxi_drik = -slope;
          }

          // dcos/dd_ij and dcos/dd_ik.
          const Vec3 dcos_ddij =
              (1.0 / (rij * rik)) * dik - (cos_t / (rij * rij)) * dij;
          const Vec3 dcos_ddik =
              (1.0 / (rij * rik)) * dij - (cos_t / (rik * rik)) * dik;

          // zeta = fC(rik) g(cos) xi(rij, rik)
          const Vec3 dz_ddij = fcik.f * (ang.dg * xi * dcos_ddij +
                                         ang.g * dxi_drij * (1.0 / rij) * dij);
          const Vec3 dz_ddik =
              fcik.df * ang.g * xi * (1.0 / rik) * dik +
              fcik.f * ang.dg * xi * dcos_ddik +
              fcik.f * ang.g * dxi_drik * (1.0 / rik) * dik;

          const Vec3 fij = dez * dz_ddij;  // dE/dd_ij
          const Vec3 fik = dez * dz_ddik;  // dE/dd_ik
          local[i] += fij + fik;
          local[j] -= fij;
          local[k] -= fik;
          wlocal -= outer(dij, fij);
          wlocal -= outer(dik, fik);
        }
      }
    }

    *epartial.local() = elocal;
  }
  const Vec3* f = fpartial.reduce();
  for (std::size_t q = 0; q < natoms; ++q) result.forces[q] = f[q];
  energy += *epartial.reduce();
  result.virial += *wpartial.reduce();

  result.energy = energy;
  return result;
}

}  // namespace tbmd::potentials
