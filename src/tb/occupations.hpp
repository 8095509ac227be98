#pragma once

/// \file occupations.hpp
/// \brief Electronic occupation numbers: zero-temperature filling and
/// Fermi-Dirac smearing with chemical-potential bisection.

#include <vector>

namespace tbmd::tb {

/// Dimensionless cutoff of the Fermi exponent: the smearing function
/// returns exactly 0 for (eps - mu)/kT > kFermiTailCutoff and exactly 1
/// below -kFermiTailCutoff.  The exact TB engine computes eigenvectors
/// only for the states with nonzero weight, so at T > 0 this cutoff is what
/// bounds its eigenvector window.
inline constexpr double kFermiTailCutoff = 40.0;

/// Width (eV) within which two eigenvalues count as one level at T = 0.
/// A symmetry-degenerate level comes out of the eigensolver split by
/// rounding, about n eps ||H||: 3e-12 eV for 768 orbitals and ||H|| ~ 20
/// eV (the open (8,0) tube's Fermi-level pair is split by 4.5e-14 eV).
/// 1e-9 eV stays above that up to ~10^5 orbitals and far below any
/// splitting a finite electronic temperature resolves (k_B * 1 K = 8.6e-5
/// eV).
inline constexpr double kDegenerateLevelWidth = 1e-9;

/// Occupation result: per-state occupancies including the spin factor
/// (each w_n is in [0, 2]), the chemical potential, band energy and
/// electronic entropy contribution -T*S (eV; zero at T = 0).
struct Occupations {
  std::vector<double> weights;  ///< w_n in [0, 2]
  double fermi_level = 0.0;     ///< chemical potential mu (eV)
  double band_energy = 0.0;     ///< sum_n w_n eps_n (eV)
  double entropy_term = 0.0;    ///< -T S_el (eV); add for Mermin free energy
};

/// Fill `n_electrons` into spin-degenerate states with the given ascending
/// eigenvalues.
///
/// temperature == 0: aufbau filling (2 per state); an odd electron leaves a
/// half-filled HOMO and the reported Fermi level is the HOMO/LUMO midpoint.
/// The HOMO's level (every state within kDegenerateLevelWidth of it)
/// shares the electrons the states below it leave equally among its
/// states, the T -> 0 limit of Fermi-Dirac.  That changes aufbau only where
/// the level straddles the Fermi level: the density then does not depend on
/// which of the level's vectors rounding put first.
/// temperature > 0 (kelvin): Fermi-Dirac occupations with mu found by
/// bisection so that sum_n w_n = n_electrons.
///
/// `eigenvalues` may be a truncated low-lying prefix of the spectrum.  The
/// result then matches the whole spectrum's answer exactly whenever the
/// truncated tail would carry no weight.
[[nodiscard]] Occupations occupy(const std::vector<double>& eigenvalues,
                                 int n_electrons, double temperature);

}  // namespace tbmd::tb
