#include "src/tb/hamiltonian.hpp"

#include "src/tb/bond_table.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::tb {

void check_species(const TbModel& model, const System& system) {
  for (const Element e : system.species()) {
    TBMD_REQUIRE(model.species_index(e) >= 0,
                 "system contains an element not covered by TB model '" +
                     model.name + "'");
  }
  TBMD_REQUIRE(model.species_count() <= 1 ||
                   model.repulsion_kind == RepulsionKind::kPairSum,
               "multi-species models require the pair-sum repulsion (the "
               "embedded polynomial has no per-species coefficients)");
}

std::vector<std::uint32_t> orbital_block_dims(const TbModel& model,
                                              const System& system) {
  check_species(model, system);
  std::vector<std::uint32_t> dims(system.size());
  for (std::size_t a = 0; a < system.size(); ++a) {
    const auto s = static_cast<std::size_t>(
        model.species_index(system.species()[a]));
    dims[a] = static_cast<std::uint32_t>(model.orbitals(s));
  }
  return dims;
}

std::size_t orbital_count(const TbModel& model, const System& system) {
  std::size_t n = 0;
  for (const std::uint32_t d : orbital_block_dims(model, system)) n += d;
  return n;
}

linalg::Matrix build_hamiltonian(const TbModel& model, const System& system,
                                 const BondTable& table) {
  TBMD_REQUIRE(table.atoms() == system.size(),
               "build_hamiltonian: bond table size mismatch");
  TBMD_REQUIRE(table.has_blocks(),
               "build_hamiltonian: bond table was built without blocks");
  const std::size_t n = system.size();
  const std::size_t norb = table.orbital_count();
  linalg::Matrix h(norb, norb, 0.0);

  // On-site energies (orbital 0 is s, 1..3 p, 4..8 d).
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t o = table.orbital_offset(i);
    const auto s = static_cast<std::size_t>(
        model.species_index(system.species()[i]));
    for (int q = 0; q < table.atom_orbitals(i); ++q) {
      h(o + q, o + q) = model.onsite_energy(s, q);
    }
  }

  // Hopping blocks: scatter each tabulated block and its transpose.
  // Distinct bonds write distinct blocks, so no synchronization is needed.
#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < table.size(); ++p) {
    const double* b = table.block(p);
    const std::size_t oi = table.orbital_offset(table.i(p));
    const std::size_t oj = table.orbital_offset(table.j(p));
    const int bsi = table.orbs_i(p);
    const int bsj = table.orbs_j(p);
    for (int a = 0; a < bsi; ++a) {
      double* hrow = h.row(oi + a) + oj;
      for (int c = 0; c < bsj; ++c) {
        hrow[c] = b[bsj * a + c];
        h(oj + c, oi + a) = b[bsj * a + c];
      }
    }
  }
  return h;
}

linalg::Matrix build_hamiltonian(const TbModel& model, const System& system,
                                 const NeighborList& list) {
  BondTable table;
  table.build(model, system, list, BondTable::Mode::kBlocks);
  return build_hamiltonian(model, system, table);
}

}  // namespace tbmd::tb
