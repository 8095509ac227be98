#include "src/neighbor/neighbor_list.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace tbmd {

namespace {

/// Below this atom count the O(N^2) build beats binning.
constexpr std::size_t kBruteForceThreshold = 192;

void check_cell_heights(const Cell& cell, double radius) {
  if (!cell.periodic()) return;
  const auto h = cell.heights();
  for (int a = 0; a < 3; ++a) {
    if (cell.periodic(a)) {
      TBMD_REQUIRE(h[a] >= 2.0 * radius,
                   "periodic cell height must be >= 2*(cutoff+skin); "
                   "use a larger supercell");
    }
  }
}

}  // namespace

void NeighborList::build(const std::vector<Vec3>& positions, const Cell& cell,
                         const Options& options) {
  TBMD_REQUIRE(options.cutoff > 0.0, "NeighborList: cutoff must be positive");
  TBMD_REQUIRE(options.skin >= 0.0, "NeighborList: skin must be >= 0");
  list_radius_ = options.cutoff + options.skin;
  skin_ = options.skin;
  check_cell_heights(cell, list_radius_);

  full_.assign(positions.size(), {});
  half_.clear();

  // Decide strategy: binning needs >= 3 bins along every periodic axis to
  // make the wrap-around 27-stencil scan collision-free.
  bool binnable = positions.size() >= kBruteForceThreshold;
  if (binnable && cell.periodic()) {
    const auto h = cell.heights();
    for (int a = 0; a < 3; ++a) {
      if (cell.periodic(a) &&
          static_cast<int>(std::floor(h[a] / list_radius_)) < 3) {
        binnable = false;
      }
    }
  }

  if (binnable) {
    build_binned(positions, cell);
    // Canonicalize row order: the binned scan visits neighbors in bin order,
    // which depends on where the atom sits relative to bin boundaries and
    // hence on *when* the list was rebuilt.  Force accumulation must be a
    // pure function of the positions, so sort every row by neighbor index
    // (the cell-height precondition guarantees at most one image per pair,
    // so the index alone is a total order).  Brute-force rows are already
    // sorted by construction.
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < full_.size(); ++i) {
      std::sort(full_[i].begin(), full_[i].end(),
                [](const NeighborEntry& a, const NeighborEntry& b) {
                  return a.j < b.j;
                });
    }
  } else {
    build_brute_force(positions, cell);
  }

  // Derive the half list (each unordered pair exactly once).
  for (std::size_t i = 0; i < full_.size(); ++i) {
    for (const NeighborEntry& e : full_[i]) {
      if (e.j > i) half_.push_back({i, e.j, e.shift});
    }
  }

  build_positions_ = positions;
  ++build_count_;
}

void NeighborList::build_brute_force(const std::vector<Vec3>& positions,
                                     const Cell& cell) {
  const double rc2 = list_radius_ * list_radius_;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      const Vec3 raw = positions[j] - positions[i];
      // image_shift, not minimum_image(raw) - raw: the stored shift must
      // be the exact lattice translation so that forces recomputed from
      // `pos[j] + shift - pos[i]` are a pure function of the positions,
      // independent of the positions the list happened to be built at.
      const Vec3 shift = cell.image_shift(raw);
      if (norm2_sq(raw + shift) < rc2) {
        full_[i].push_back({j, shift});
        full_[j].push_back({i, -shift});
      }
    }
  }
}

void NeighborList::build_binned(const std::vector<Vec3>& positions,
                                const Cell& cell) {
  const std::size_t n = positions.size();
  const double rc2 = list_radius_ * list_radius_;

  // Bin in fractional space.  For non-periodic axes, bins span the bounding
  // box of the coordinates (fractional space of a synthetic axis-aligned
  // box for cluster systems).
  const bool have_lattice = cell.volume() > 0.0;
  Cell box = cell;
  if (!have_lattice) {
    Vec3 lo = positions[0], hi = positions[0];
    for (const Vec3& r : positions) {
      lo = {std::min(lo.x, r.x), std::min(lo.y, r.y), std::min(lo.z, r.z)};
      hi = {std::max(hi.x, r.x), std::max(hi.y, r.y), std::max(hi.z, r.z)};
    }
    const Vec3 span = hi - lo + Vec3{1e-6, 1e-6, 1e-6};
    box = Cell::orthorhombic(span.x, span.y, span.z, false, false, false);
    // Shift into the box frame when computing fractional coordinates below.
    origin_shift_ = lo;
  } else {
    origin_shift_ = {0.0, 0.0, 0.0};
  }

  const auto heights = box.heights();
  std::array<int, 3> nb{};
  for (int a = 0; a < 3; ++a) {
    nb[a] = std::max(1, static_cast<int>(std::floor(heights[a] / list_radius_)));
    if (!box.periodic(a)) nb[a] = std::max(nb[a], 1);
  }

  const int nbins = nb[0] * nb[1] * nb[2];
  auto bin_of = [&](const Vec3& r) {
    Vec3 s = box.to_fractional(r - origin_shift_);
    // Map to [0,1) along periodic axes, clamp along open ones.
    auto fold = [&](double v, bool per) {
      if (per) {
        v -= std::floor(v);
        if (v >= 1.0) v = 0.0;
      } else {
        v = std::clamp(v, 0.0, 1.0 - 1e-12);
      }
      return v;
    };
    s = {fold(s.x, box.periodic(0)), fold(s.y, box.periodic(1)),
         fold(s.z, box.periodic(2))};
    const int bx = std::min(nb[0] - 1, static_cast<int>(s.x * nb[0]));
    const int by = std::min(nb[1] - 1, static_cast<int>(s.y * nb[1]));
    const int bz = std::min(nb[2] - 1, static_cast<int>(s.z * nb[2]));
    return std::array<int, 3>{bx, by, bz};
  };
  auto flat = [&](int bx, int by, int bz) {
    return (bx * nb[1] + by) * nb[2] + bz;
  };

  std::vector<std::vector<std::size_t>> bins(nbins);
  std::vector<std::array<int, 3>> atom_bin(n);
  for (std::size_t i = 0; i < n; ++i) {
    atom_bin[i] = bin_of(positions[i]);
    bins[flat(atom_bin[i][0], atom_bin[i][1], atom_bin[i][2])].push_back(i);
  }

  // Scan the 27-stencil around each atom's bin; rows of `full_` are
  // independent, so atoms parallelize trivially.
#pragma omp parallel for schedule(dynamic, 32)
  for (std::size_t i = 0; i < n; ++i) {
    const auto& b = atom_bin[i];
    auto& list = full_[i];
    for (int dx = -1; dx <= 1; ++dx) {
      int bx = b[0] + dx;
      if (box.periodic(0)) {
        bx = (bx + nb[0]) % nb[0];
      } else if (bx < 0 || bx >= nb[0]) {
        continue;
      }
      for (int dy = -1; dy <= 1; ++dy) {
        int by = b[1] + dy;
        if (box.periodic(1)) {
          by = (by + nb[1]) % nb[1];
        } else if (by < 0 || by >= nb[1]) {
          continue;
        }
        for (int dz = -1; dz <= 1; ++dz) {
          int bz = b[2] + dz;
          if (box.periodic(2)) {
            bz = (bz + nb[2]) % nb[2];
          } else if (bz < 0 || bz >= nb[2]) {
            continue;
          }
          for (const std::size_t j : bins[flat(bx, by, bz)]) {
            if (j == i) continue;
            const Vec3 raw = positions[j] - positions[i];
            // Exact lattice-translation shift; see build_brute_force.
            const Vec3 shift = cell.image_shift(raw);
            if (norm2_sq(raw + shift) < rc2) {
              list.push_back({j, shift});
            }
          }
        }
      }
    }
  }
}

bool NeighborList::needs_rebuild(const std::vector<Vec3>& positions) const {
  if (positions.size() != build_positions_.size()) return true;
  const double limit = 0.25 * skin_ * skin_;  // (skin/2)^2
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (norm2_sq(positions[i] - build_positions_[i]) > limit) return true;
  }
  return false;
}

bool NeighborList::ensure(const std::vector<Vec3>& positions, const Cell& cell,
                          const Options& options) {
  const bool stale = full_.empty() || list_radius_ != options.cutoff + options.skin ||
                     needs_rebuild(positions);
  if (stale) build(positions, cell, options);
  return stale;
}

}  // namespace tbmd
