#pragma once

/// \file forces.hpp
/// \brief Hellmann-Feynman band-structure forces.
///
/// With orthogonal tight binding the band energy is E_bs = tr(rho H), and
/// because the on-site terms carry no position dependence the force reduces
/// to a sum over bonds:
///   F_j = - sum_{i in nbr(j)} sum_{alpha beta}
///             2 rho(i alpha, j beta) dB(alpha, beta)/dd
/// where B is the Slater-Koster block of the bond and d its vector.  This
/// is the density-matrix formulation of the Hellmann-Feynman theorem; it
/// parallelizes over bonds with no per-eigenstate work.

#include <vector>

#include "src/core/system.hpp"
#include "src/geom/vec3.hpp"
#include "src/linalg/matrix.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/tb/tb_model.hpp"

namespace tbmd::tb {

class BondTable;

/// Band-structure (attractive) forces contracted from a prebuilt bond
/// table (must have been built with derivatives).  When `virial` is
/// non-null the band contribution to the virial tensor (sum of d (x) f
/// over bonds) is accumulated into it.  The contraction runs in two
/// passes with one writer per bond slot (each bond's dE/dd, then a
/// per-atom gather in sorted neighbor order), so the forces are
/// bit-identical at any thread count.
[[nodiscard]] std::vector<Vec3> band_forces(const BondTable& table,
                                            const linalg::Matrix& rho,
                                            Mat3* virial = nullptr);

/// Convenience overload: evaluate a derivative-carrying BondTable from
/// `list` and contract from it.
[[nodiscard]] std::vector<Vec3> band_forces(const TbModel& model,
                                            const System& system,
                                            const NeighborList& list,
                                            const linalg::Matrix& rho,
                                            Mat3* virial = nullptr);

}  // namespace tbmd::tb
