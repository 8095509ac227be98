#pragma once

/// \file hamiltonian.hpp
/// \brief Assembly of the dense tight-binding Hamiltonian.

#include <cstdint>
#include <vector>

#include "src/core/system.hpp"
#include "src/linalg/matrix.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/tb/tb_model.hpp"

namespace tbmd::tb {

class BondTable;

/// Assemble the dense tight-binding Hamiltonian from a prebuilt bond table
/// (the step-pipeline hot path: the table's blocks are shared with the
/// force contraction and the repulsive term).  Orbital (i, alpha) maps to
/// row table.orbital_offset(i) + alpha (= 4*i + alpha for the sp models,
/// carbon and silicon).  `model` supplies the on-site energies; the
/// hopping blocks come from the table.
[[nodiscard]] linalg::Matrix build_hamiltonian(const TbModel& model,
                                               const System& system,
                                               const BondTable& table);

/// Convenience overload: evaluate a blocks-only BondTable from `list` and
/// assemble from it.  Every atom's element must be covered by the model.
[[nodiscard]] linalg::Matrix build_hamiltonian(const TbModel& model,
                                               const System& system,
                                               const NeighborList& list);

/// Validate that every atom in `system` is handled by `model`; throws
/// tbmd::Error otherwise.
void check_species(const TbModel& model, const System& system);

/// Per-atom orbital counts of `system` under `model` -- the BSR block
/// dimensions of the system's Hamiltonian (all 4 for the sp models).
/// This is the authoritative source the block-sparse layer's
/// converters take their block structure from.
[[nodiscard]] std::vector<std::uint32_t> orbital_block_dims(
    const TbModel& model, const System& system);

/// Total orbital count (the Hamiltonian dimension).
[[nodiscard]] std::size_t orbital_count(const TbModel& model,
                                        const System& system);

}  // namespace tbmd::tb
