// Tests for src/geom: Vec3, Mat3 and periodic Cell behavior.

#include <gtest/gtest.h>

#include <cmath>

#include "src/geom/cell.hpp"
#include "src/geom/mat3.hpp"
#include "src/geom/vec3.hpp"
#include "src/util/error.hpp"
#include "src/util/random.hpp"

namespace tbmd {
namespace {

TEST(Vec3, BasicArithmetic) {
  const Vec3 a{1, 2, 3}, b{-1, 0.5, 2};
  EXPECT_EQ(a + b, (Vec3{0, 2.5, 5}));
  EXPECT_EQ(a - b, (Vec3{2, 1.5, 1}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
  EXPECT_EQ(a / 2.0, (Vec3{0.5, 1, 1.5}));
}

TEST(Vec3, DotCrossNorm) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
  EXPECT_EQ(cross(x, y), z);
  EXPECT_EQ(cross(y, z), x);
  EXPECT_EQ(cross(z, x), y);
  EXPECT_DOUBLE_EQ(norm(Vec3{3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(norm2_sq(Vec3{1, 2, 2}), 9.0);
  EXPECT_NEAR(norm(normalized(Vec3{4, -3, 12})), 1.0, 1e-15);
}

TEST(Vec3, IndexedAccess) {
  const Vec3 v{7, 8, 9};
  EXPECT_DOUBLE_EQ(v[0], 7);
  EXPECT_DOUBLE_EQ(v[1], 8);
  EXPECT_DOUBLE_EQ(v[2], 9);
}

TEST(Mat3, DeterminantAndInverse) {
  const Mat3 a({2, 0, 0}, {0, 3, 0}, {0, 0, 4});
  EXPECT_DOUBLE_EQ(det(a), 24.0);
  const Mat3 ainv = inverse(a);
  EXPECT_DOUBLE_EQ(ainv(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ainv(1, 1), 1.0 / 3.0);
}

TEST(Mat3, InverseOfGeneralMatrix) {
  Rng rng(5);
  Mat3 a;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) a(i, j) = rng.uniform(-1, 1);
  }
  a(0, 0) += 3.0;  // keep well-conditioned
  a(1, 1) += 3.0;
  a(2, 2) += 3.0;
  const Mat3 prod = a * inverse(a);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Mat3, SingularMatrixThrows) {
  const Mat3 s({1, 2, 3}, {2, 4, 6}, {0, 0, 1});
  EXPECT_THROW((void)inverse(s), Error);
}

TEST(Mat3, RowTimesMatchesTransposedProduct) {
  const Mat3 a({1, 2, 3}, {4, 5, 6}, {7, 8, 10});
  const Vec3 v{1, -1, 2};
  const Vec3 r1 = row_times(v, a);
  const Vec3 r2 = transpose(a) * v;
  EXPECT_NEAR(r1.x, r2.x, 1e-14);
  EXPECT_NEAR(r1.y, r2.y, 1e-14);
  EXPECT_NEAR(r1.z, r2.z, 1e-14);
}

TEST(Cell, DefaultIsNonPeriodicCluster) {
  const Cell c;
  EXPECT_FALSE(c.periodic());
  EXPECT_DOUBLE_EQ(c.volume(), 0.0);
  const Vec3 dr{100, -50, 3};
  EXPECT_EQ(c.minimum_image(dr), dr);  // no wrapping
}

TEST(Cell, OrthorhombicVolumeAndHeights) {
  const Cell c = Cell::orthorhombic(2, 3, 4);
  EXPECT_DOUBLE_EQ(c.volume(), 24.0);
  const auto h = c.heights();
  EXPECT_NEAR(h[0], 2.0, 1e-14);
  EXPECT_NEAR(h[1], 3.0, 1e-14);
  EXPECT_NEAR(h[2], 4.0, 1e-14);
  EXPECT_TRUE(c.orthorhombic());
}

TEST(Cell, MinimumImageOrthorhombic) {
  const Cell c = Cell::cubic(10.0);
  const Vec3 wrapped = c.minimum_image({9.0, -9.0, 4.9});
  EXPECT_NEAR(wrapped.x, -1.0, 1e-12);
  EXPECT_NEAR(wrapped.y, 1.0, 1e-12);
  EXPECT_NEAR(wrapped.z, 4.9, 1e-12);
}

TEST(Cell, MinimumImageIsShorterThanInput) {
  const Cell c = Cell::orthorhombic(7, 9, 11);
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3 dr{rng.uniform(-30, 30), rng.uniform(-30, 30),
                  rng.uniform(-30, 30)};
    const Vec3 mi = c.minimum_image(dr);
    EXPECT_LE(norm(mi), norm(dr) + 1e-12);
    EXPECT_LE(std::fabs(mi.x), 3.5 + 1e-12);
    EXPECT_LE(std::fabs(mi.y), 4.5 + 1e-12);
    EXPECT_LE(std::fabs(mi.z), 5.5 + 1e-12);
  }
}

TEST(Cell, MinimumImageDifferenceIsLatticeVector) {
  const Cell c = Cell::orthorhombic(5, 6, 7);
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec3 dr{rng.uniform(-20, 20), rng.uniform(-20, 20),
                  rng.uniform(-20, 20)};
    const Vec3 shift = c.minimum_image(dr) - dr;
    const Vec3 s = c.to_fractional(shift);
    EXPECT_NEAR(s.x, std::round(s.x), 1e-9);
    EXPECT_NEAR(s.y, std::round(s.y), 1e-9);
    EXPECT_NEAR(s.z, std::round(s.z), 1e-9);
  }
}

TEST(Cell, MixedPeriodicityOnlyWrapsPeriodicAxes) {
  const Cell c = Cell::orthorhombic(10, 10, 30, true, true, false);
  const Vec3 mi = c.minimum_image({9, 9, 25});
  EXPECT_NEAR(mi.x, -1.0, 1e-12);
  EXPECT_NEAR(mi.y, -1.0, 1e-12);
  EXPECT_NEAR(mi.z, 25.0, 1e-12);  // z is open
}

TEST(Cell, TriclinicFractionalRoundTrip) {
  const Cell c({4, 0, 0}, {1, 5, 0}, {0.5, 0.25, 6});
  EXPECT_FALSE(c.orthorhombic());
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec3 r{rng.uniform(-10, 10), rng.uniform(-10, 10),
                 rng.uniform(-10, 10)};
    const Vec3 back = c.to_cartesian(c.to_fractional(r));
    EXPECT_NEAR(back.x, r.x, 1e-11);
    EXPECT_NEAR(back.y, r.y, 1e-11);
    EXPECT_NEAR(back.z, r.z, 1e-11);
  }
}

TEST(Cell, TriclinicMinimumImageStaysWithinHalfHeights) {
  const Cell c({6, 0, 0}, {2, 7, 0}, {1, 1, 8});
  const auto h = c.heights();
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec3 dr{rng.uniform(-25, 25), rng.uniform(-25, 25),
                  rng.uniform(-25, 25)};
    const Vec3 mi = c.minimum_image(dr);
    const Vec3 s = c.to_fractional(mi);
    EXPECT_LE(std::fabs(s.x), 0.5 + 1e-9);
    EXPECT_LE(std::fabs(s.y), 0.5 + 1e-9);
    EXPECT_LE(std::fabs(s.z), 0.5 + 1e-9);
    (void)h;
  }
}

TEST(Cell, DegenerateLatticeThrows) {
  EXPECT_THROW(Cell({1, 0, 0}, {2, 0, 0}, {0, 0, 1}), Error);
}

TEST(Cell, ShiftVectorIsLatticeCombination) {
  const Cell c({3, 0, 0}, {0, 4, 0}, {0, 0, 5});
  const Vec3 s = c.shift_vector(1, -2, 3);
  EXPECT_EQ(s, (Vec3{3, -8, 15}));
}

}  // namespace
}  // namespace tbmd
