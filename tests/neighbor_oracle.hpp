#pragma once

/// \file neighbor_oracle.hpp
/// \brief Reference O(N^2) pair enumeration the neighbor-list tests compare
/// the linked-cell NeighborList against.  Production code never calls it;
/// section (b) of bench/exp_a1_ablation.cpp times it against the
/// linked-cell build.

#include <cstddef>
#include <vector>

#include "src/geom/cell.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/util/error.hpp"

namespace tbmd {

/// Every pair (i < j) closer than `cutoff` under the minimum image, with
/// the image shift applied to atom j.  Like NeighborList::build, it
/// requires every periodic cell height to be at least 2 * cutoff.
inline std::vector<NeighborPair> brute_force_pairs(
    const std::vector<Vec3>& positions, const Cell& cell, double cutoff) {
  if (cell.periodic()) {
    const auto h = cell.heights();
    for (int a = 0; a < 3; ++a) {
      TBMD_REQUIRE(!cell.periodic(a) || h[a] >= 2.0 * cutoff,
                   "periodic cell height must be >= 2*cutoff");
    }
  }
  std::vector<NeighborPair> pairs;
  const double rc2 = cutoff * cutoff;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const Vec3 raw = positions[j] - positions[i];
      const Vec3 shift = cell.image_shift(raw);
      if (norm2_sq(raw + shift) < rc2) {
        pairs.push_back({i, j, shift});
      }
    }
  }
  return pairs;
}

}  // namespace tbmd
