// Tests for the linked-cell Verlet neighbor list against the brute-force
// reference, including periodic-image shift bookkeeping and the Verlet-skin
// rebuild criterion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "src/neighbor/neighbor_list.hpp"
#include "src/structures/builders.hpp"
#include "src/util/error.hpp"
#include "src/util/random.hpp"
#include "tests/neighbor_oracle.hpp"

namespace tbmd {
namespace {

using PairKey = std::tuple<std::size_t, std::size_t>;

std::set<PairKey> pair_set(const std::vector<NeighborPair>& pairs) {
  std::set<PairKey> s;
  for (const auto& p : pairs) s.insert({p.i, p.j});
  return s;
}

std::vector<Vec3> random_positions(std::size_t n, double box,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> r(n);
  for (auto& v : r) {
    v = {rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)};
  }
  return r;
}

TEST(BruteForce, SimplePairGeometry) {
  const std::vector<Vec3> pos{{0, 0, 0}, {1, 0, 0}, {5, 0, 0}};
  const Cell cell;  // cluster
  const auto pairs = brute_force_pairs(pos, cell, 2.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].i, 0u);
  EXPECT_EQ(pairs[0].j, 1u);
  EXPECT_EQ(pairs[0].shift, (Vec3{0, 0, 0}));
}

TEST(BruteForce, PeriodicImageAcrossBoundary) {
  const Cell cell = Cell::cubic(10.0);
  const std::vector<Vec3> pos{{0.5, 5, 5}, {9.5, 5, 5}};
  const auto pairs = brute_force_pairs(pos, cell, 2.0);
  ASSERT_EQ(pairs.size(), 1u);
  // r_ij = r_j + shift - r_i must be the short (1 A) displacement.
  const Vec3 rij = pos[1] + pairs[0].shift - pos[0];
  EXPECT_NEAR(norm(rij), 1.0, 1e-12);
  EXPECT_NEAR(pairs[0].shift.x, -10.0, 1e-12);
}

TEST(BruteForce, CellHeightPreconditionEnforced) {
  const Cell cell = Cell::cubic(4.0);
  const std::vector<Vec3> pos{{0, 0, 0}, {1, 1, 1}};
  EXPECT_THROW((void)brute_force_pairs(pos, cell, 2.5), Error);
}

class NeighborListVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, bool, double>> {};

TEST_P(NeighborListVsBruteForce, SamePairsAsReference) {
  const auto [n, periodic, cutoff] = GetParam();
  const double box = 14.0;
  const auto pos = random_positions(n, box, 1234 + n);
  const Cell cell = periodic ? Cell::cubic(box) : Cell();

  NeighborList list;
  list.build(pos, cell, {cutoff, 0.0});
  const auto reference = brute_force_pairs(pos, cell, cutoff);

  EXPECT_EQ(pair_set(list.half_pairs()), pair_set(reference));

  // Shifts must reproduce the minimum-image displacement.
  for (const auto& p : list.half_pairs()) {
    const Vec3 via_shift = pos[p.j] + p.shift - pos[p.i];
    const Vec3 mi = cell.minimum_image(pos[p.j] - pos[p.i]);
    EXPECT_NEAR(norm(via_shift - mi), 0.0, 1e-10);
    EXPECT_LT(norm(via_shift), cutoff);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, NeighborListVsBruteForce,
    ::testing::Values(std::make_tuple(20, true, 3.0),
                      std::make_tuple(20, false, 3.0),
                      std::make_tuple(150, true, 2.5),
                      std::make_tuple(150, false, 2.5),
                      std::make_tuple(300, true, 3.5),   // binned path
                      std::make_tuple(300, false, 3.5),  // binned, cluster
                      std::make_tuple(500, true, 2.0),
                      std::make_tuple(500, false, 4.0)));

TEST(NeighborList, FullListMirrorsHalfList) {
  const auto pos = random_positions(100, 12.0, 77);
  const Cell cell = Cell::cubic(12.0);
  NeighborList list;
  list.build(pos, cell, {3.0, 0.0});

  std::size_t full_entries = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (const auto& e : list.neighbors(i)) {
      ++full_entries;
      // The reverse entry must exist with the opposite shift.
      bool found = false;
      for (const auto& back : list.neighbors(e.j)) {
        if (back.j == i && norm(back.shift + e.shift) < 1e-12) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "missing reverse entry " << e.j << " -> " << i;
    }
  }
  EXPECT_EQ(full_entries, 2 * list.half_pairs().size());
}

TEST(NeighborList, DiamondLatticeCoordination) {
  // First-neighbor shell of diamond: 4 neighbors at sqrt(3)/4 * a.
  const double a = 5.431;
  System s = structures::diamond(Element::Si, a, 2, 2, 2);
  NeighborList list;
  const double first_shell = std::sqrt(3.0) / 4.0 * a;
  list.build(s.positions(), s.cell(), {first_shell + 0.2, 0.0});
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(list.neighbors(i).size(), 4u) << "atom " << i;
    for (const auto& e : list.neighbors(i)) {
      const double r = norm(s.positions()[e.j] + e.shift - s.positions()[i]);
      EXPECT_NEAR(r, first_shell, 1e-9);
    }
  }
}

TEST(NeighborList, SkinDefersRebuild) {
  auto pos = random_positions(64, 12.0, 99);
  const Cell cell = Cell::cubic(12.0);
  NeighborList list;
  const NeighborList::Options opt{3.0, 1.0};
  list.build(pos, cell, opt);
  EXPECT_EQ(list.build_count(), 1u);

  // Displacements below skin/2 must not trigger a rebuild.
  for (auto& r : pos) r += Vec3{0.2, -0.2, 0.1};
  EXPECT_FALSE(list.needs_rebuild(pos));
  EXPECT_FALSE(list.ensure(pos, cell, opt));
  EXPECT_EQ(list.build_count(), 1u);

  // Crossing skin/2 must trigger one.
  pos[0] += Vec3{0.6, 0, 0};
  EXPECT_TRUE(list.needs_rebuild(pos));
  EXPECT_TRUE(list.ensure(pos, cell, opt));
  EXPECT_EQ(list.build_count(), 2u);
}

TEST(NeighborList, SkinListStaysValidWhileAtomsDrift) {
  // Property: as long as no atom moved more than skin/2, every pair within
  // the bare cutoff is still present in the stale list.
  auto pos = random_positions(128, 13.0, 101);
  const Cell cell = Cell::cubic(13.0);
  const double cutoff = 3.0, skin = 1.0;
  NeighborList list;
  list.build(pos, cell, {cutoff, skin});

  Rng rng(555);
  for (auto& r : pos) {
    // |d| <= 0.49 < skin/2 along the diagonal
    r += Vec3{rng.uniform(-0.28, 0.28), rng.uniform(-0.28, 0.28),
              rng.uniform(-0.28, 0.28)};
  }
  ASSERT_FALSE(list.needs_rebuild(pos));

  const auto current = pair_set(brute_force_pairs(pos, cell, cutoff));
  const auto stale = pair_set(list.half_pairs());
  for (const auto& key : current) {
    EXPECT_TRUE(stale.count(key))
        << "pair (" << std::get<0>(key) << "," << std::get<1>(key)
        << ") missing from skinned list";
  }
}

TEST(NeighborList, RejectsTooSmallPeriodicCell) {
  System s = structures::diamond(Element::C, 3.567, 1, 1, 1);
  NeighborList list;
  EXPECT_THROW(list.build(s.positions(), s.cell(), {2.6, 0.5}), Error);
}

TEST(NeighborList, RejectsNonPositiveCutoff) {
  NeighborList list;
  std::vector<Vec3> pos{{0, 0, 0}};
  EXPECT_THROW(list.build(pos, Cell(), {0.0, 0.1}), Error);
  EXPECT_THROW(list.build(pos, Cell(), {1.0, -0.1}), Error);
}

TEST(NeighborList, EmptyAndSingleAtomSystems) {
  NeighborList list;
  std::vector<Vec3> none;
  list.build(none, Cell(), {2.0, 0.1});
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.half_pairs().empty());

  std::vector<Vec3> one{{1, 2, 3}};
  list.build(one, Cell(), {2.0, 0.1});
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.half_pairs().empty());
  EXPECT_TRUE(list.neighbors(0).empty());
}

TEST(NeighborList, MixedPeriodicityGrapheneSlab) {
  System s = structures::graphene(Element::C, 1.42, 4, 3);
  NeighborList list;
  list.build(s.positions(), s.cell(), {1.6, 0.0});
  // Perfect graphene: every atom has exactly 3 first neighbors.
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(list.neighbors(i).size(), 3u) << "atom " << i;
  }
}

}  // namespace
}  // namespace tbmd
