#pragma once

/// \file bond_table.hpp
/// \brief Per-step table of evaluated bond quantities shared by every
/// consumer of the neighbor list.
///
/// A TBMD step touches each half pair (i < j) of the neighbor list several
/// times: Hamiltonian assembly needs the 4x4 Slater-Koster block, the
/// Hellmann-Feynman contraction needs the block's derivative, and the
/// repulsive term needs the pair radial function.  Before this subsystem
/// each consumer re-evaluated the (transcendental-heavy) radial scaling and
/// angular factors from scratch, so a single compute() paid for three
/// independent Slater-Koster passes.
///
/// BondTable evaluates everything once, in one batched OpenMP pass over the
/// half-pair list, into structure-of-arrays storage:
///   * bond geometry (vector, length, endpoint atoms),
///   * the hopping block per bond (row-major, orbs(i) x orbs(j) doubles),
///   * optionally its derivative (3x that, [gamma][alpha][beta]),
///   * the repulsive pair function phi(r) = phi0 * s_rep(r) and phi'(r).
///
/// Block shapes vary per bond (1, 4 or 9 orbitals per endpoint), so the
/// blocks live at offsets from a per-bond prefix array and per-atom orbital
/// offsets are tabulated for the assembly consumers.
/// Consumers (build_hamiltonian, band_forces, repulsive_energy_forces and
/// the onx sparse assembly / sparse forces) then contract straight from the
/// table.  A per-atom CSR adjacency (sorted by neighbor index) lets
/// atom-centric consumers walk the same storage.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/system.hpp"
#include "src/geom/mat3.hpp"
#include "src/geom/vec3.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/tb/tb_model.hpp"

namespace tbmd::tb {

/// Structure-of-arrays table of per-bond Slater-Koster blocks, derivatives
/// and repulsive pair values, built once per step from the neighbor list.
class BondTable {
 public:
  /// What the batched pass evaluates.  Geometry and the per-atom adjacency
  /// are always tabulated; the hopping blocks (+ the 3x larger dB/dd
  /// arrays) and the repulsive phi(r), phi'(r) are independent radial
  /// evaluations (each pair's hopping vs repulsive scaling), so each is
  /// only computed for the modes whose consumers read it.
  enum class Mode {
    kRepulsiveOnly,         ///< geometry + phi/phi' (repulsive term only)
    kBlocks,                ///< geometry + hopping blocks (H assembly only)
    kBlocksAndDerivatives,  ///< everything: blocks, dB/dd, phi/phi'
  };

  /// One adjacency entry: `bond` indexes the table, `neighbor` is the atom
  /// at the other end.  When `transposed` the owning atom is the bond's j
  /// endpoint, so its hopping block is the transpose of block(bond).
  struct AtomBond {
    std::uint32_t bond;
    std::uint32_t neighbor;
    std::uint8_t transposed;
  };

  BondTable() = default;

  /// Evaluate the table for the current positions.  Reuses storage across
  /// calls, so a persistent BondTable member costs one allocation per
  /// neighbor-list resize rather than one per MD step.
  ///
  /// `reuse_skin` > 0 enables bond reuse: a bond whose two endpoints have
  /// each moved less than reuse_skin / 2 since the positions its entries
  /// were last evaluated at keeps every stored quantity (geometry, hopping
  /// block, derivative, repulsive radial) untouched, so its length may be
  /// stale by up to reuse_skin.  Unlike a Verlet neighbor skin, which only
  /// widens the candidate pair list and costs no accuracy, frozen values
  /// are wrong values: energy and forces no longer match the current
  /// positions, and NVE energy is not conserved (measured drift: see
  /// CalculatorSpec::bond_reuse_skin).  Atoms that crossed the half-skin
  /// re-evaluate every incident bond at the true current positions and
  /// re-anchor.  Reuse is skipped entirely (and the anchors reset)
  /// whenever the table shape, the evaluation mode, or a bond's endpoints
  /// changed, so it can never serve values for a different topology --
  /// the same `topology_version()` stamp consumers already key their
  /// caches on.  Like the calculator-level cached-bounds mode, frozen
  /// bonds make the table a function of the position *history* rather
  /// than the current positions alone; the default 0 keeps the historical
  /// one-build-per-step behavior exactly.
  void build(const TbModel& model, const System& system,
             const NeighborList& list, Mode mode = Mode::kBlocksAndDerivatives,
             double reuse_skin = 0.0);

  /// Cumulative bond-evaluation accounting across build() calls:
  /// `evaluated` counts bonds whose Slater-Koster/repulsive entries were
  /// (re-)computed, `reused` those served frozen under `reuse_skin`.
  struct ReuseStats {
    std::size_t evaluated = 0;
    std::size_t reused = 0;
  };
  [[nodiscard]] const ReuseStats& reuse_stats() const { return reuse_stats_; }

  /// Monotonic stamp of the bond *topology*: bumped by build() whenever
  /// the pair list (endpoints), the atom count or any hopping_zero flag
  /// changed relative to the previous build -- i.e. whenever the sparsity
  /// pattern of the assembled Hamiltonian may differ.  Steady MD steps
  /// (values change, topology does not) keep the stamp, which is what lets
  /// the O(N) engine's SpMM pattern cache survive across steps; a bond
  /// crossing the hopping cutoff inside the Verlet skin bumps it even
  /// though the neighbor list itself was not rebuilt.  0 only before the
  /// first build.
  [[nodiscard]] std::uint64_t topology_version() const {
    return topology_version_;
  }

  /// Number of half bonds (== list.half_pairs().size() at build time).
  [[nodiscard]] std::size_t size() const { return nbonds_; }

  /// Number of atoms the table was built for.
  [[nodiscard]] std::size_t atoms() const { return natoms_; }

  [[nodiscard]] bool has_blocks() const { return !h_.empty() || nbonds_ == 0; }
  [[nodiscard]] bool has_derivatives() const { return !dh_.empty() || nbonds_ == 0; }
  [[nodiscard]] bool has_repulsive() const {
    return !rep_val_.empty() || nbonds_ == 0;
  }

  [[nodiscard]] std::size_t i(std::size_t p) const { return i_[p]; }
  [[nodiscard]] std::size_t j(std::size_t p) const { return j_[p]; }

  /// Bond vector r_j + shift - r_i and its length.
  [[nodiscard]] const Vec3& bond(std::size_t p) const { return bond_[p]; }
  [[nodiscard]] double length(std::size_t p) const { return r_[p]; }

  /// Orbitals on the two endpoints of bond p (block(p) is orbs_i x orbs_j).
  [[nodiscard]] int orbs_i(std::size_t p) const { return atom_orbs_[i_[p]]; }
  [[nodiscard]] int orbs_j(std::size_t p) const { return atom_orbs_[j_[p]]; }

  /// Orbitals carried by `atom` and its offset into the global orbital
  /// numbering (the row/column offset of the atom's Hamiltonian block).
  [[nodiscard]] int atom_orbitals(std::size_t atom) const {
    return atom_orbs_[atom];
  }
  [[nodiscard]] std::size_t orbital_offset(std::size_t atom) const {
    return atom_orb_off_[atom];
  }

  /// Total orbital count (Hamiltonian dimension).
  [[nodiscard]] std::size_t orbital_count() const {
    return natoms_ == 0 ? 0 : atom_orb_off_[natoms_];
  }

  /// Hopping block of bond p: row-major [alpha][beta], orbs_i(p) x
  /// orbs_j(p) doubles.
  [[nodiscard]] const double* block(std::size_t p) const {
    return h_.data() + hoff_[p];
  }

  /// dB/dd_gamma of bond p: orbs_i x orbs_j doubles [alpha][beta]; all
  /// three components of one bond are contiguous ([gamma][alpha][beta]).
  [[nodiscard]] const double* derivative(std::size_t p, int gamma) const {
    const std::size_t sz = hoff_[p + 1] - hoff_[p];
    return dh_.data() + 3 * hoff_[p] + sz * static_cast<std::size_t>(gamma);
  }

  /// True when the hopping block of bond p is identically zero (bond at or
  /// beyond the hopping cutoff; such pairs exist because the neighbor list
  /// is built out to cutoff + skin).
  [[nodiscard]] bool hopping_zero(std::size_t p) const {
    return hop_zero_[p] != 0;
  }

  /// phi(r_p) = phi0 * s_rep(r_p) and its radial derivative (zero at or
  /// beyond the repulsive cutoff).
  [[nodiscard]] double repulsive_value(std::size_t p) const {
    return rep_val_[p];
  }
  [[nodiscard]] double repulsive_derivative(std::size_t p) const {
    return rep_der_[p];
  }

  /// Per-atom adjacency over the half-bond table, sorted by neighbor index.
  [[nodiscard]] const AtomBond* atom_begin(std::size_t atom) const {
    return adj_.data() + adj_ptr_[atom];
  }
  [[nodiscard]] const AtomBond* atom_end(std::size_t atom) const {
    return adj_.data() + adj_ptr_[atom + 1];
  }

 private:
  std::size_t nbonds_ = 0;
  std::size_t natoms_ = 0;
  std::uint64_t topology_version_ = 0;
  std::vector<std::uint32_t> i_, j_;
  std::vector<Vec3> bond_;
  std::vector<double> r_;
  std::vector<double> h_;   ///< blocks at hoff_ offsets
  std::vector<double> dh_;  ///< 3x the block size (kBlocksAndDerivatives)
  std::vector<std::uint8_t> hop_zero_;
  std::vector<double> rep_val_, rep_der_;
  std::vector<AtomBond> adj_;      ///< CSR payload, 2 entries per bond
  std::vector<std::size_t> adj_ptr_;
  std::vector<std::uint8_t> atom_orbs_;     ///< orbitals per atom
  std::vector<std::size_t> atom_orb_off_;   ///< prefix sums, natoms + 1
  std::vector<std::size_t> hoff_;  ///< per-bond block offsets, nbonds + 1
  std::vector<int> spi_;           ///< per-atom species index

  /// Verlet-skin bond reuse state: the positions each atom's incident
  /// bonds were last evaluated at, the per-build moved flags, and the
  /// mode of the previous build (a mode change invalidates reuse -- the
  /// previous build may not have filled the arrays this one reads).
  std::vector<Vec3> eval_pos_;
  std::vector<std::uint8_t> moved_;
  Mode last_mode_ = Mode::kBlocksAndDerivatives;
  ReuseStats reuse_stats_;
};

/// Pass 2 of the deterministic two-pass bond-force scheme shared by the
/// band and repulsive contractions.  Pass 1 writes one force slot per bond
/// (`fbond`, the force on the bond's i endpoint) and one virial partial per
/// atom (`watom`).  This gathers each atom's force over its
/// neighbor-sorted adjacency -- owned entries (transposed == 0) add the
/// slot, mirror entries subtract it -- and, when `virial` is non-null, adds
/// the partials summed in atom order.  Bonds pass 1 skipped hold zero
/// slots and drop out.  Every output has one writer and a
/// thread-count-independent summation order, so forces and virial are
/// bit-identical at any OMP_NUM_THREADS and across checkpoint
/// kill-and-resume.
void gather_bond_forces(const BondTable& table, const std::vector<Vec3>& fbond,
                        const std::vector<Mat3>& watom,
                        std::vector<Vec3>& forces, Mat3* virial);

}  // namespace tbmd::tb
