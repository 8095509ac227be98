#pragma once

/// \file tersoff.hpp
/// \brief Tersoff bond-order potential (classical baseline).
///
/// The era's standard classical model for Si and C, implemented with full
/// analytic three-body forces.  In the benchmark suite it provides the
/// "classical MD" cost/accuracy reference point against which the O(N^3)
/// TBMD and the O(N) density-matrix TBMD are compared.
///
/// Functional form (single element):
///   E      = 1/2 sum_{i != j} fC(r_ij) [ fR(r_ij) + b_ij fA(r_ij) ]
///   fR(r)  = A exp(-lambda1 r)
///   fA(r)  = -B exp(-lambda2 r)
///   b_ij   = (1 + beta^n zeta_ij^n)^(-1/(2n))
///   zeta   = sum_k fC(r_ik) g(theta_ijk) exp[lambda3^m (r_ij - r_ik)^m]
///   g(t)   = gamma (1 + c^2/d^2 - c^2/(d^2 + (h - cos t)^2))

#include <cstddef>
#include <vector>

#include "src/core/calculator.hpp"
#include "src/neighbor/neighbor_list.hpp"

namespace tbmd::potentials {

/// Tersoff parameter set (single element).
struct TersoffParams {
  double a = 0.0;        ///< A (eV)
  double b = 0.0;        ///< B (eV)
  double lambda1 = 0.0;  ///< 1/A
  double lambda2 = 0.0;  ///< 1/A
  double lambda3 = 0.0;  ///< 1/A
  double beta = 0.0;
  double n = 1.0;
  double c = 0.0;
  double d = 1.0;
  double h = 0.0;
  double gamma = 1.0;
  int m = 3;
  double r_cut = 0.0;    ///< R: cutoff center (A)
  double d_cut = 0.0;    ///< D: cutoff half-width (A)
  double skin = 0.5;     ///< Verlet skin (A)

  /// Hard cutoff R + D.
  [[nodiscard]] double outer_cutoff() const { return r_cut + d_cut; }
};

/// Tersoff T3 silicon (Phys. Rev. B 39, 5566 (1989)).
[[nodiscard]] TersoffParams tersoff_silicon();

/// Tersoff carbon (Phys. Rev. Lett. 61, 2879 (1988)).
[[nodiscard]] TersoffParams tersoff_carbon();

/// Classical Tersoff calculator with analytic forces.
class TersoffCalculator final : public Calculator {
 public:
  explicit TersoffCalculator(TersoffParams params);

  ForceResult compute(const System& system) override;

  [[nodiscard]] std::string name() const override { return "tersoff"; }

  [[nodiscard]] const TersoffParams& params() const { return params_; }

 private:
  TersoffParams params_;
  NeighborList list_;
  /// Force-pass slots, reused across calls: row_start_[i] indexes center
  /// i's first full-row entry in the per-entry bond vector, length and
  /// dE/dd arrays.
  std::vector<std::size_t> row_start_;
  std::vector<Vec3> bond_;
  std::vector<double> length_;
  std::vector<Vec3> dedd_;
  /// Per-center energy and virial, summed in atom order.
  std::vector<double> atom_energy_;
  std::vector<Mat3> atom_virial_;
};

}  // namespace tbmd::potentials
