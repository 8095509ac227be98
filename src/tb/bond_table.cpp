#include "src/tb/bond_table.hpp"

#include <algorithm>

#include "src/tb/hamiltonian.hpp"
#include "src/tb/radial.hpp"
#include "src/tb/slater_koster.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd::tb {

void BondTable::build(const TbModel& model, const System& system,
                      const NeighborList& list, Mode mode,
                      double reuse_skin) {
  check_species(model, system);
  const auto& pairs = list.half_pairs();
  const auto& pos = system.positions();
  // Topology-change detection: a different pair count or atom count is a
  // change outright; otherwise the batched pass below compares every
  // bond's endpoints and hopping_zero flag against the previous build
  // (reading the old SoA values just before overwriting them).
  const bool same_shape = nbonds_ == pairs.size() && natoms_ == system.size();
  int topo_changed = same_shape ? 0 : 1;
  nbonds_ = pairs.size();
  TBMD_REQUIRE(list.size() == system.size(),
               "BondTable: neighbor list was built for a different system");

  // Per-atom species and orbital layout (a species swap at fixed geometry
  // changes block shapes, so it counts as a topology change too).
  if (natoms_ != system.size()) atom_orbs_.clear();
  natoms_ = system.size();
  atom_orbs_.resize(natoms_, 0);
  atom_orb_off_.resize(natoms_ + 1);
  spi_.resize(natoms_);
  const auto& species = system.species();
  for (std::size_t a = 0; a < natoms_; ++a) {
    spi_[a] = model.species_index(species[a]);
    const auto orbs = static_cast<std::uint8_t>(
        model.orbitals(static_cast<std::size_t>(spi_[a])));
    if (same_shape && atom_orbs_[a] != orbs) topo_changed = 1;
    atom_orbs_[a] = orbs;
  }
  atom_orb_off_[0] = 0;
  for (std::size_t a = 0; a < natoms_; ++a) {
    atom_orb_off_[a + 1] = atom_orb_off_[a] + atom_orbs_[a];
  }

  const bool blocks = mode != Mode::kRepulsiveOnly;
  const bool derivs = mode == Mode::kBlocksAndDerivatives;
  const bool rep = mode != Mode::kBlocks;
  i_.resize(nbonds_);
  j_.resize(nbonds_);
  bond_.resize(nbonds_);
  r_.resize(nbonds_);
  hoff_.resize(nbonds_ + 1);
  hoff_[0] = 0;
  for (std::size_t p = 0; p < nbonds_; ++p) {
    const NeighborPair& pr = pairs[p];
    hoff_[p + 1] = hoff_[p] + static_cast<std::size_t>(atom_orbs_[pr.i]) *
                                  static_cast<std::size_t>(atom_orbs_[pr.j]);
  }
  const std::size_t hdoubles = hoff_[nbonds_];
  h_.resize(blocks ? hdoubles : 0);
  dh_.resize(derivs ? 3 * hdoubles : 0);
  hop_zero_.resize(nbonds_);
  rep_val_.resize(rep ? nbonds_ : 0);
  rep_der_.resize(rep ? nbonds_ : 0);

  // Verlet-skin bond reuse (see the header doc): mark atoms that moved at
  // least reuse_skin / 2 from the positions their bonds were last
  // evaluated at, and re-anchor exactly those.  Reuse requires the
  // previous build to have filled the same arrays for the same bond list
  // (same shape, same mode); everything else falls back to a full
  // evaluation pass and re-anchors every atom.
  const bool want_reuse = reuse_skin > 0.0;
  const bool reuse_ok = want_reuse && same_shape && mode == last_mode_ &&
                        eval_pos_.size() == natoms_;
  if (want_reuse) {
    moved_.resize(natoms_);
    if (!reuse_ok) {
      eval_pos_.assign(pos.begin(), pos.end());
      std::fill(moved_.begin(), moved_.end(), std::uint8_t{1});
    } else {
      const double thr2 = 0.25 * reuse_skin * reuse_skin;
      for (std::size_t a = 0; a < natoms_; ++a) {
        const Vec3 d = pos[a] - eval_pos_[a];
        moved_[a] = dot(d, d) >= thr2 ? 1 : 0;
        if (moved_[a] != 0) eval_pos_[a] = pos[a];
      }
    }
  } else {
    eval_pos_.clear();
  }
  last_mode_ = mode;
  std::size_t reused = 0;

  // The batched pass: geometry, hopping block (+ derivative) and repulsive
  // radial per bond, each written straight into the SoA arrays.  Pairs are
  // independent, so a static schedule keeps every thread streaming.
#pragma omp parallel for schedule(static) reduction(| : topo_changed) \
    reduction(+ : reused)
  for (std::size_t p = 0; p < nbonds_; ++p) {
    const NeighborPair& pr = pairs[p];
    if (reuse_ok && moved_[pr.i] == 0 && moved_[pr.j] == 0 &&
        i_[p] == static_cast<std::uint32_t>(pr.i) &&
        j_[p] == static_cast<std::uint32_t>(pr.j)) {
      // Both endpoints inside the half-skin of their anchors and the bond
      // identity unchanged: every stored quantity (including hop_zero_,
      // since the frozen length is the stored one) stays valid.
      ++reused;
      continue;
    }
    const Vec3 b = pos[pr.j] + pr.shift - pos[pr.i];
    const double r = norm(b);
    const PairParams& pp = model.pair(static_cast<std::size_t>(spi_[pr.i]),
                                      static_cast<std::size_t>(spi_[pr.j]));
    const std::uint8_t hz = r >= pp.hopping.r_cut ? 1 : 0;
    if (same_shape && (i_[p] != static_cast<std::uint32_t>(pr.i) ||
                       j_[p] != static_cast<std::uint32_t>(pr.j) ||
                       hop_zero_[p] != hz)) {
      topo_changed = 1;
    }
    i_[p] = static_cast<std::uint32_t>(pr.i);
    j_[p] = static_cast<std::uint32_t>(pr.j);
    bond_[p] = b;
    r_[p] = r;
    if (blocks) {
      sk_pair_block_into(pp, atom_orbs_[pr.i], atom_orbs_[pr.j], b, r,
                         h_.data() + hoff_[p],
                         derivs ? dh_.data() + 3 * hoff_[p] : nullptr);
    }
    hop_zero_[p] = hz;
    if (rep) {
      const RadialValue rv = evaluate_scaling(pp.repulsive, r);
      rep_val_[p] = pp.phi0 * rv.value;
      rep_der_[p] = pp.phi0 * rv.derivative;
    }
  }
  if (topo_changed != 0 || topology_version_ == 0) ++topology_version_;
  reuse_stats_.reused += reused;
  reuse_stats_.evaluated += nbonds_ - reused;

  // Per-atom CSR adjacency (counting sort over both bond endpoints), each
  // atom's segment sorted by neighbor index so CSR-building consumers can
  // emit ordered rows directly.
  adj_ptr_.assign(natoms_ + 1, 0);
  for (std::size_t p = 0; p < nbonds_; ++p) {
    ++adj_ptr_[i_[p] + 1];
    ++adj_ptr_[j_[p] + 1];
  }
  for (std::size_t a = 0; a < natoms_; ++a) adj_ptr_[a + 1] += adj_ptr_[a];
  adj_.resize(2 * nbonds_);
  std::vector<std::size_t> fill(adj_ptr_.begin(), adj_ptr_.end() - 1);
  for (std::size_t p = 0; p < nbonds_; ++p) {
    const auto bp = static_cast<std::uint32_t>(p);
    adj_[fill[i_[p]]++] = AtomBond{bp, j_[p], 0};
    adj_[fill[j_[p]]++] = AtomBond{bp, i_[p], 1};
  }
#pragma omp parallel for schedule(dynamic, 64)
  for (std::size_t a = 0; a < natoms_; ++a) {
    std::sort(adj_.begin() + static_cast<std::ptrdiff_t>(adj_ptr_[a]),
              adj_.begin() + static_cast<std::ptrdiff_t>(adj_ptr_[a + 1]),
              [](const AtomBond& x, const AtomBond& y) {
                return x.neighbor < y.neighbor;
              });
  }
}

void gather_bond_forces(const BondTable& table, const std::vector<Vec3>& fbond,
                        const std::vector<Mat3>& watom,
                        std::vector<Vec3>& forces, Mat3* virial) {
  const std::size_t n = table.atoms();
#pragma omp parallel for schedule(static)
  for (std::size_t atom = 0; atom < n; ++atom) {
    Vec3 f{};
    for (const BondTable::AtomBond* ab = table.atom_begin(atom);
         ab != table.atom_end(atom); ++ab) {
      const Vec3& g = fbond[ab->bond];
      if (ab->transposed != 0) {
        f -= g;
      } else {
        f += g;
      }
    }
    forces[atom] = f;
  }
  if (virial != nullptr) {
    Mat3 w{};
    for (std::size_t i = 0; i < n; ++i) w += watom[i];
    *virial += w;
  }
}

}  // namespace tbmd::tb
