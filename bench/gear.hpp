#pragma once

/// \file gear.hpp
/// \brief 5th-order Gear predictor-corrector integrator.
///
/// The dominant MD integrator of the 1980s-early 90s literature and the
/// era-authentic alternative to velocity Verlet.  Higher short-time
/// accuracy (useful for vibrational spectra) but no symplectic long-time
/// energy bound -- the trade-off section (d) of exp_a1_ablation.cpp
/// quantifies.  Production MD runs md::MdDriver (velocity Verlet); this
/// header serves that ablation and the Gear.* cases of
/// tests/test_extensions.cpp.

#include <vector>

#include "src/core/calculator.hpp"
#include "src/core/system.hpp"
#include "src/util/error.hpp"

namespace tbmd::md {

/// 5th-order Gear predictor-corrector driver (NVE only).
///
/// Keeps Taylor derivatives up to r^(5) per atom.  One force evaluation
/// per step, like Verlet.
class GearDriver {
 public:
  GearDriver(System& system, Calculator& calculator, double dt)
      : system_(&system), calculator_(&calculator), dt_(dt) {
    TBMD_REQUIRE(dt > 0.0, "GearDriver: timestep must be positive");
    result_ = calculator_->compute(*system_);
    TBMD_REQUIRE(result_.forces.size() == system_->size(),
                 "GearDriver: calculator returned wrong force count");
    // Initialize the second derivative from the forces; higher ones to zero.
    d_.assign(4, std::vector<Vec3>(system_->size(), Vec3{}));
    for (std::size_t i = 0; i < system_->size(); ++i) {
      d_[0][i] = (0.5 * dt_ * dt_ / system_->mass(i)) * result_.forces[i];
    }
  }

  /// Advance one timestep.
  void step() {
    // Gear 5th-order corrector coefficients for second-order ODEs
    // (Allen & Tildesley, Computer Simulation of Liquids, Table E.1).
    constexpr double kGear[6] = {3.0 / 16.0,  251.0 / 360.0, 1.0,
                                 11.0 / 18.0, 1.0 / 6.0,     1.0 / 60.0};
    System& sys = *system_;
    const std::size_t n = sys.size();
    auto& pos = sys.positions();
    auto& vel = sys.velocities();
    auto& r2 = d_[0];  // a dt^2/2
    auto& r3 = d_[1];  // b dt^3/6
    auto& r4 = d_[2];
    auto& r5 = d_[3];

    // Predictor: Taylor-expand all stored derivatives (Pascal triangle).
    for (std::size_t i = 0; i < n; ++i) {
      if (sys.frozen(i)) continue;
      const Vec3 v1 = dt_ * vel[i];
      pos[i] += v1 + r2[i] + r3[i] + r4[i] + r5[i];
      const Vec3 nv1 =
          v1 + 2.0 * r2[i] + 3.0 * r3[i] + 4.0 * r4[i] + 5.0 * r5[i];
      vel[i] = nv1 / dt_;
      r2[i] += 3.0 * r3[i] + 6.0 * r4[i] + 10.0 * r5[i];
      r3[i] += 4.0 * r4[i] + 10.0 * r5[i];
      r4[i] += 5.0 * r5[i];
    }

    // Evaluate forces at the predicted positions.
    result_ = calculator_->compute(sys);

    // Corrector: distribute the acceleration error over all derivatives.
    for (std::size_t i = 0; i < n; ++i) {
      if (sys.frozen(i)) continue;
      const Vec3 correct =
          (0.5 * dt_ * dt_ / sys.mass(i)) * result_.forces[i] - r2[i];
      pos[i] += kGear[0] * correct;
      vel[i] += (kGear[1] / dt_) * correct;
      r2[i] += kGear[2] * correct;
      r3[i] += kGear[3] * correct;
      r4[i] += kGear[4] * correct;
      r5[i] += kGear[5] * correct;
    }
  }

  /// Advance n steps.
  void run(long n_steps) {
    for (long q = 0; q < n_steps; ++q) step();
  }

  [[nodiscard]] double total_energy() const {
    return system_->kinetic_energy() + result_.energy;
  }

 private:
  System* system_;
  Calculator* calculator_;
  double dt_;
  ForceResult result_;
  // Scaled Taylor derivatives: d_[k][i] = r_i^(k) dt^k / k!  for k = 2..5.
  std::vector<std::vector<Vec3>> d_;
};

}  // namespace tbmd::md
