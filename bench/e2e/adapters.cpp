#include "adapters.hpp"

#include <algorithm>
#include <utility>

#include "src/linalg/eigen_partial.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/repulsive.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "src/util/partition.hpp"

namespace e2e {

using namespace tbmd;

namespace {

/// tb::TightBindingCalculator::compute, one span per layer call.
class TracedExact final : public TracedCalculator {
 public:
  TracedExact(tb::TbModel model, const CalculatorSpec& spec, Tracer& tracer)
      : TracedCalculator(tracer), model_(std::move(model)), spec_(spec) {
    // At T_el = 0 the partial window is exactly HOMO..LUMO and the
    // Fermi-tail fallback of the engine never runs.
    TBMD_REQUIRE(spec.electronic_temperature == 0.0,
                 "traced exact adapter: T_el must be 0");
  }

  [[nodiscard]] std::string name() const override { return "traced-exact"; }

  ForceResult compute(const System& system) override {
    auto force_span = tracer_->scope("md.force");
    ForceResult result;
    {
      auto s = tracer_->scope("neighbor");
      if (list_.ensure(system.positions(), system.cell(),
                       {model_.cutoff(), spec_.skin})) {
        ++counts_.neighbor_rebuilds;
      }
    }
    {
      auto s = tracer_->scope("tb.bondtable");
      table_.build(model_, system, list_,
                   tb::BondTable::Mode::kBlocksAndDerivatives);
    }
    linalg::Matrix h;
    {
      auto s = tracer_->scope("tb.hamiltonian");
      h = tb::build_hamiltonian(model_, system, table_);
    }

    const std::size_t norb = h.rows();
    const int ne = system.total_valence_electrons();
    const bool want_partial =
        spec_.spectrum == SpectrumPolicy::kPartial ||
        (spec_.spectrum == SpectrumPolicy::kAuto && !spec_.report_eigenvalues);
    linalg::SymmetricEigenSolution eig;
    {
      auto s = tracer_->scope("linalg.eigh");
      bool partial = false;
      if (want_partial && ne > 0 && norb > 0) {
        // Occupied states plus the LUMO for the Fermi-level midpoint.
        const auto homo = static_cast<std::size_t>((ne - 1) / 2);
        const std::size_t iu = std::min(norb - 1, homo + 1);
        partial = iu + 1 < norb;
        if (partial) eig = linalg::eigh_range(h, 0, iu);
      }
      if (!partial) eig = linalg::eigh(h);
    }
    counts_.eig_pairs += static_cast<double>(eig.values.size());
    counts_.eig_norb += static_cast<double>(norb);

    tb::Occupations occ;
    {
      auto s = tracer_->scope("tb.density");
      occ = tb::occupy(eig.values, ne, 0.0);
    }
    linalg::Matrix rho;
    {
      auto s = tracer_->scope("tb.density");
      rho = tb::density_matrix(eig.vectors, occ.weights);
    }
    {
      auto s = tracer_->scope("tb.forces");
      result.forces = tb::band_forces(table_, rho, &result.virial);
    }
    tb::RepulsiveResult rep;
    {
      auto s = tracer_->scope("tb.repulsive");
      rep = tb::repulsive_energy_forces(model_, table_);
    }

    for (std::size_t i = 0; i < system.size(); ++i) {
      result.forces[i] += rep.forces[i];
    }
    result.virial += rep.virial;
    result.band_energy = occ.band_energy;
    result.repulsive_energy = rep.energy;
    result.energy = occ.band_energy + occ.entropy_term + rep.energy;
    result.fermi_level = occ.fermi_level;
    if (spec_.report_eigenvalues) result.eigenvalues = std::move(eig.values);
    return result;
  }

 private:
  tb::TbModel model_;
  CalculatorSpec spec_;
  NeighborList list_;
  tb::BondTable table_;
};

/// onx::OrderNCalculator::compute (guardrails off), one span per layer
/// call, on a bench-owned PurificationWorkspace.
class TracedOrderN final : public TracedCalculator {
 public:
  TracedOrderN(tb::TbModel model, const CalculatorSpec& spec, Tracer& tracer)
      : TracedCalculator(tracer), model_(std::move(model)), spec_(spec) {
    TBMD_REQUIRE(!spec.health.enabled && !spec.cache_spectral_bounds &&
                     spec.bond_reuse_skin == 0.0 && spec.reuse_patterns,
                 "traced O(N) adapter: unsupported CalculatorSpec options");
    static_cast<NumericsSpec&>(popts_) = spec.numerics;
  }

  [[nodiscard]] std::string name() const override { return "traced-on"; }

  ForceResult compute(const System& system) override {
    auto force_span = tracer_->scope("md.force");
    ForceResult result;
    const std::size_t n = system.size();
    const int electrons = system.total_valence_electrons();
    TBMD_REQUIRE(electrons % 2 == 0, "traced O(N) adapter: odd electrons");

    // Same block-row domain count as the engine (scheduling only).
    std::size_t ndom = 1;
    if (spec_.domains == 0) {
      const auto nthreads = static_cast<std::size_t>(par::max_threads());
      if (nthreads > 1 && n >= 512) ndom = std::min(4 * nthreads, n / 64);
    } else if (spec_.domains > 1) {
      ndom = std::min(static_cast<std::size_t>(spec_.domains), n);
    }

    {
      auto s = tracer_->scope("neighbor");
      if (list_.ensure(system.positions(), system.cell(),
                       {model_.cutoff(), spec_.skin})) {
        ++counts_.neighbor_rebuilds;
      }
    }
    {
      auto s = tracer_->scope("tb.bondtable");
      table_.build(model_, system, list_,
                   tb::BondTable::Mode::kBlocksAndDerivatives);
    }
    ws_.patterns.set_topology(table_.topology_version());
    if (ndom > 1) {
      ws_.scratch.domains = par::even_domains(n, ndom).domain_ptr;
    } else {
      ws_.scratch.domains.clear();
    }
    {
      auto s = tracer_->scope("onx.assemble");
      onx::build_block_hamiltonian(model_, system, table_, h_, ws_.scratch);
    }
    tb::RepulsiveResult rep;
    {
      auto s = tracer_->scope("tb.repulsive");
      rep = tb::repulsive_energy_forces(model_, table_);
    }
    {
      auto s = tracer_->scope("onx.purify");
      ws_.p = std::move(last_.density);
      last_ = onx::palser_manolopoulos(h_, electrons / 2, popts_, &ws_);
    }
    {
      auto s = tracer_->scope("onx.forces");
      result.forces = onx::band_forces_sparse(table_, last_.density,
                                              &result.virial);
    }

    const onx::BlockSparseMatrix& p = last_.density;
    counts_.purify_iterations += last_.iterations;
    counts_.fp32_iterations += last_.numerics.fp32_iterations;
    if (!last_.converged) ++counts_.unconverged;
    counts_.density_fill += last_.fill_fraction;
    counts_.density_mbytes +=
        1e-6 * static_cast<double>(p.nnz() * sizeof(double) +
                                   p.cols().size() * sizeof(std::uint32_t) +
                                   p.row_ptr().size() * sizeof(std::size_t));
    counts_.spmm_symbolic =
        static_cast<long>(ws_.scratch.stats.symbolic_builds);
    counts_.spmm_reuses = static_cast<long>(ws_.scratch.stats.numeric_reuses);

    for (std::size_t i = 0; i < n; ++i) result.forces[i] += rep.forces[i];
    result.virial += rep.virial;
    result.band_energy = last_.band_energy;
    result.repulsive_energy = rep.energy;
    result.energy = last_.band_energy + rep.energy;
    return result;
  }

 private:
  tb::TbModel model_;
  CalculatorSpec spec_;
  onx::PurificationOptions popts_;
  NeighborList list_;
  tb::BondTable table_;
  onx::BlockSparseMatrix h_;
  onx::PurificationWorkspace ws_;
  onx::PurificationResult last_;
};

}  // namespace

std::unique_ptr<TracedCalculator> make_traced_calculator(
    const tb::TbModel& model, const CalculatorSpec& spec, Tracer& tracer) {
  if (spec.mode == CalcMode::kExact) {
    return std::make_unique<TracedExact>(model, spec, tracer);
  }
  return std::make_unique<TracedOrderN>(model, spec, tracer);
}

}  // namespace e2e
