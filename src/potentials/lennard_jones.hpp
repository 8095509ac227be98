#pragma once

/// \file lennard_jones.hpp
/// \brief Lennard-Jones 12-6 pair potential (classical baseline).
///
/// The simplest classical comparator in the benchmark suite, and the
/// canonical test bed for the MD integrators (its energy conservation
/// properties are textbook material).

#include <vector>

#include "src/core/calculator.hpp"
#include "src/neighbor/neighbor_list.hpp"

namespace tbmd::potentials {

/// LJ parameters.  Defaults are argon (eV / A).
struct LennardJonesParams {
  double epsilon = 0.0104;  ///< well depth (eV)
  double sigma = 3.40;      ///< zero-crossing distance (A)
  double cutoff = 8.5;      ///< interaction cutoff (A)
  double skin = 0.5;        ///< Verlet skin (A)
  bool shift_energy = true; ///< shift so V(cutoff) = 0 (removes the step)
};

/// Classical 12-6 Lennard-Jones calculator.
class LennardJonesCalculator final : public Calculator {
 public:
  explicit LennardJonesCalculator(LennardJonesParams params = {});

  ForceResult compute(const System& system) override;

  [[nodiscard]] std::string name() const override { return "lennard-jones"; }

  [[nodiscard]] const LennardJonesParams& params() const { return params_; }

 private:
  LennardJonesParams params_;
  NeighborList list_;
  double energy_shift_ = 0.0;
  /// Per-atom halves of the pair energy and virial, summed in atom order.
  std::vector<double> atom_energy_;
  std::vector<Mat3> atom_virial_;
};

}  // namespace tbmd::potentials
