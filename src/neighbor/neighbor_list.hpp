#pragma once

/// \file neighbor_list.hpp
/// \brief Verlet neighbor lists built from linked-cell binning.
///
/// The tight-binding Hamiltonian, the repulsive pair energy and the
/// classical baseline potentials all consume the same list.  The list is
/// built to `cutoff + skin` and only rebuilt once some atom has moved
/// farther than skin/2 since the last build (the standard Verlet-skin
/// scheme), which amortizes the O(N) build over many MD steps.
///
/// Periodic-image bookkeeping: every stored pair carries the Cartesian
/// lattice shift S such that r_ij = r_j + S - r_i is the minimum-image
/// displacement at build time.  Because positions are not wrapped between
/// rebuilds, the shift stays valid while the list is in use.
///
/// Precondition: along every periodic axis the cell height must be at least
/// 2*(cutoff+skin), so each unordered pair has at most one interacting
/// image and an atom never interacts with its own image.  The builders in
/// src/structures create cells that satisfy this for the shipped models.

#include <cstddef>
#include <vector>

#include "src/geom/cell.hpp"
#include "src/geom/vec3.hpp"

namespace tbmd {

/// One direction of a stored pair: neighbor j of atom i with image shift.
struct NeighborEntry {
  std::size_t j;   ///< neighbor atom index
  Vec3 shift;      ///< lattice shift: r_ij = r[j] + shift - r[i]
};

/// Unordered pair (i < j) with the shift applied to atom j.
struct NeighborPair {
  std::size_t i;
  std::size_t j;
  Vec3 shift;
};

/// Reference O(N^2) pair enumeration (minimum image).  Used by the test
/// suite as the oracle for the linked-cell implementation and by tiny
/// systems where binning does not pay off.
[[nodiscard]] std::vector<NeighborPair> brute_force_pairs(
    const std::vector<Vec3>& positions, const Cell& cell, double cutoff);

/// Linked-cell Verlet neighbor list.
class NeighborList {
 public:
  struct Options {
    double cutoff = 0.0;  ///< interaction cutoff (A)
    double skin = 0.5;    ///< Verlet skin (A); 0 disables deferred rebuilds
  };

  NeighborList() = default;

  /// Build the list from scratch.
  void build(const std::vector<Vec3>& positions, const Cell& cell,
             const Options& options);

  /// True when some atom has moved more than skin/2 since the last build.
  [[nodiscard]] bool needs_rebuild(const std::vector<Vec3>& positions) const;

  /// Rebuild only if needed; returns true when a rebuild happened.
  bool ensure(const std::vector<Vec3>& positions, const Cell& cell,
              const Options& options);

  /// Full neighbor list of atom i (both directions of every pair).
  [[nodiscard]] const std::vector<NeighborEntry>& neighbors(
      std::size_t i) const {
    return full_[i];
  }

  /// Each pair exactly once (i < j).
  [[nodiscard]] const std::vector<NeighborPair>& half_pairs() const {
    return half_;
  }

  /// Number of atoms the list was built for.
  [[nodiscard]] std::size_t size() const { return full_.size(); }

  /// Number of from-scratch builds performed (ablation instrumentation).
  [[nodiscard]] std::size_t build_count() const { return build_count_; }

 private:
  void build_brute_force(const std::vector<Vec3>& positions, const Cell& cell);
  void build_binned(const std::vector<Vec3>& positions, const Cell& cell);

  std::vector<std::vector<NeighborEntry>> full_;
  std::vector<NeighborPair> half_;
  std::vector<Vec3> build_positions_;
  Vec3 origin_shift_;  ///< bounding-box origin used when binning clusters
  double list_radius_ = 0.0;
  double skin_ = 0.0;
  std::size_t build_count_ = 0;
};

}  // namespace tbmd
