#include "src/tb/tb_calculator.hpp"

#include <algorithm>
#include <utility>

#include "src/linalg/eigen_partial.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/repulsive.hpp"
#include "src/util/error.hpp"

namespace tbmd::tb {

TightBindingCalculator::TightBindingCalculator(TbModel model,
                                               CalculatorSpec spec)
    : model_(std::move(model)), spec_(std::move(spec)) {
  TBMD_REQUIRE(spec_.mode == CalcMode::kExact,
               "TightBindingCalculator: spec.mode is '" + spec_.mode_name() +
                   "'; the O(N) engine is onx::OrderNCalculator");
}

ForceResult TightBindingCalculator::compute(const System& system) {
  report_ = StepReport{};
  ForceResult result;
  const std::size_t n = system.size();
  if (n == 0) return result;

  {
    PhaseTimer t(report_, Phase::kNeighbors);
    report_.neighbor_rebuilt = list_.ensure(system.positions(), system.cell(),
                                            {model_.cutoff(), spec_.skin});
  }

  // One batched pass evaluates every Slater-Koster block, its derivative
  // and the repulsive pair function; Hamiltonian assembly, the force
  // contraction and the repulsive term below all read from this table.
  {
    PhaseTimer t(report_, Phase::kBondTable);
    table_.build(model_, system, list_, BondTable::Mode::kBlocksAndDerivatives);
  }

  linalg::Matrix h;
  {
    PhaseTimer t(report_, Phase::kHamiltonian);
    h = build_hamiltonian(model_, system, table_);
  }

  const std::size_t norb = h.rows();
  const int ne = system.total_valence_electrons();
  const double etemp = spec_.electronic_temperature;

  // One eigensolve.  The values stage returns the whole spectrum; the
  // occupations on it pick the eigenvector window: the states with nonzero
  // weight plus the next one (the LUMO at T = 0, for the Fermi-level
  // midpoint), or every state under kFull.  Only the window pays for
  // inverse iteration and the back-transform.
  linalg::ReducedSpectrum spectrum;
  {
    PhaseTimer t(report_, Phase::kDiagonalize);
    spectrum = linalg::reduce_spectrum(h);
  }
  std::size_t iu = norb - 1;
  if (spec_.spectrum != SpectrumPolicy::kFull) {
    PhaseTimer t(report_, Phase::kDensity);
    const std::vector<double> w = occupy(spectrum.values, ne, etemp).weights;
    std::size_t next = norb;  // the state after the last weighted one
    while (next > 0 && w[next - 1] == 0.0) --next;
    iu = std::min(next, norb - 1);
  }
  linalg::SymmetricEigenSolution eig;
  {
    PhaseTimer t(report_, Phase::kDiagonalize);
    eig = linalg::window_eigenpairs(spectrum, 0, iu);
  }
  report_.eigenpairs = eig.values.size();
  // Only the values are left to read: free the reflectors (n x n) before
  // rho is allocated, so the step's peak memory stays that of one solve.
  spectrum.reduction = {};

  // The final occupations see the window's polished values, which may
  // differ from the QL's in the last bits, followed by the QL values of
  // the rest.  Where the polish lifted the window's top past a near-tie
  // above it, the tail is raised to it, so the list stays ascending.
  std::vector<double> values = std::move(eig.values);
  for (std::size_t k = iu + 1; k < norb; ++k) {
    values.push_back(std::max(spectrum.values[k], values.back()));
  }
  Occupations occ;
  linalg::Matrix rho;
  {
    PhaseTimer t(report_, Phase::kDensity);
    occ = occupy(values, ne, etemp);
    const auto tail = occ.weights.begin() + static_cast<std::ptrdiff_t>(iu) + 1;
    TBMD_REQUIRE(std::all_of(tail, occ.weights.end(),
                             [](double w) { return w == 0.0; }),
                 "TightBindingCalculator: a state outside the eigenvector "
                 "window carries weight");
    occ.weights.erase(tail, occ.weights.end());
    rho = density_matrix(eig.vectors, occ.weights);
  }

  {
    PhaseTimer t(report_, Phase::kForces);
    result.forces = band_forces(table_, rho, &result.virial);
  }

  RepulsiveResult rep;
  {
    PhaseTimer t(report_, Phase::kRepulsive);
    rep = repulsive_energy_forces(model_, table_);
  }

  for (std::size_t i = 0; i < n; ++i) result.forces[i] += rep.forces[i];
  result.virial += rep.virial;

  result.band_energy = occ.band_energy;
  result.repulsive_energy = rep.energy;
  result.energy = occ.band_energy + occ.entropy_term + rep.energy;
  result.fermi_level = occ.fermi_level;
  if (spec_.report_eigenvalues) result.eigenvalues = std::move(values);
  return result;
}

}  // namespace tbmd::tb
