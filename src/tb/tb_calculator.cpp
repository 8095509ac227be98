#include "src/tb/tb_calculator.hpp"

#include <algorithm>
#include <utility>

#include "src/linalg/eigen_partial.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/repulsive.hpp"
#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace tbmd::tb {

TightBindingCalculator::TightBindingCalculator(TbModel model,
                                               CalculatorSpec spec)
    : model_(std::move(model)), spec_(std::move(spec)) {
  TBMD_REQUIRE(spec_.mode == CalcMode::kExact,
               "TightBindingCalculator: spec.mode is '" + spec_.mode_name() +
                   "'; the O(N) engine is onx::OrderNCalculator");
}

ForceResult TightBindingCalculator::compute(const System& system) {
  ForceResult result;
  const std::size_t n = system.size();
  if (n == 0) return result;

  {
    auto t = timers_.scope("neighbors");
    list_.ensure(system.positions(), system.cell(),
                 {model_.cutoff(), spec_.skin});
  }

  // One batched pass evaluates every Slater-Koster block, its derivative
  // and the repulsive pair function; Hamiltonian assembly, the force
  // contraction and the repulsive term below all read from this table.
  {
    auto t = timers_.scope("bondtable");
    table_.build(model_, system, list_, BondTable::Mode::kBlocksAndDerivatives);
  }

  linalg::Matrix h;
  {
    auto t = timers_.scope("hamiltonian");
    h = build_hamiltonian(model_, system, table_);
  }

  const std::size_t norb = h.rows();
  const int ne = system.total_valence_electrons();
  const double etemp = spec_.electronic_temperature;

  // Partial-spectrum policy: occupations / density matrix / forces only
  // involve the occupied states, so ask eigh_range for indices [0, iu] with
  // iu = LUMO (T = 0) or LUMO + a Fermi-tail buffer (T > 0), and keep the
  // full solver for spectrum-reporting or forced-full configurations.
  const bool want_partial =
      spec_.spectrum == SpectrumPolicy::kPartial ||
      (spec_.spectrum == SpectrumPolicy::kAuto && !spec_.report_eigenvalues);

  bool partial = false;
  linalg::SymmetricEigenSolution eig;
  {
    auto t = timers_.scope("diagonalize");
    if (want_partial && ne > 0 && norb > 0) {
      const auto homo = static_cast<std::size_t>((ne - 1) / 2);
      std::size_t needed = homo + 1;  // + LUMO for the Fermi-level midpoint
      if (etemp > 0.0) {
        // Fermi tail buffer, widened by what earlier fallbacks learned.
        needed += std::max({std::size_t{16}, norb / 8, tail_hint_});
      }
      const std::size_t iu = std::min(norb - 1, needed);
      partial = iu + 1 < norb;
      if (partial) eig = linalg::eigh_range(h, 0, iu);
    }
    if (!partial) eig = linalg::eigh(h);
  }

  Occupations occ;
  {
    auto t = timers_.scope("density");
    occ = occupy(eig.values, ne, etemp);
  }
  if (partial && etemp > 0.0 &&
      eig.values.back() <
          occ.fermi_level + kFermiTailCutoff * units::kBoltzmann * etemp) {
    // The Fermi tail was not fully inside the computed window, so omitted
    // states could carry weight: redo with the full spectrum.  (With the
    // window check passed, every omitted state has exactly zero occupation
    // and the partial result is identical to the full one.)
    partial = false;
    {
      auto t = timers_.scope("diagonalize");
      eig = linalg::eigh(h);
    }
    {
      auto t = timers_.scope("density");
      occ = occupy(eig.values, ne, etemp);
    }
    // Learn the window this system actually needs so later steps go back
    // to a single (partial or full) solve instead of paying for both.
    const double top =
        occ.fermi_level + kFermiTailCutoff * units::kBoltzmann * etemp;
    std::size_t covered = 0;
    while (covered < eig.values.size() && eig.values[covered] < top) ++covered;
    const auto homo = static_cast<std::size_t>((ne - 1) / 2);
    const std::size_t beyond_lumo =
        (covered > homo + 1) ? covered - (homo + 1) : 0;
    tail_hint_ = std::max(tail_hint_, beyond_lumo + norb / 16 + 8);
  }

  linalg::Matrix rho;
  {
    auto t = timers_.scope("density");
    rho = density_matrix(eig.vectors, occ.weights);
  }

  {
    auto t = timers_.scope("forces");
    result.forces = band_forces(table_, rho, &result.virial);
  }

  RepulsiveResult rep;
  {
    auto t = timers_.scope("repulsive");
    rep = repulsive_energy_forces(model_, table_);
  }

  for (std::size_t i = 0; i < n; ++i) result.forces[i] += rep.forces[i];
  result.virial += rep.virial;

  result.band_energy = occ.band_energy;
  result.repulsive_energy = rep.energy;
  result.energy = occ.band_energy + occ.entropy_term + rep.energy;
  result.fermi_level = occ.fermi_level;
  if (spec_.report_eigenvalues) result.eigenvalues = std::move(eig.values);
  return result;
}

}  // namespace tbmd::tb
