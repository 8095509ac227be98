#include "src/geom/cell.hpp"

#include <cmath>

#include "src/util/error.hpp"

namespace tbmd {

Cell::Cell(const Vec3& a1, const Vec3& a2, const Vec3& a3, bool px, bool py,
           bool pz)
    : h_(a1, a2, a3), periodic_{px, py, pz} {
  volume_ = std::fabs(det(h_));
  TBMD_REQUIRE(volume_ > 1e-12, "Cell: lattice vectors are degenerate");
  hinv_ = inverse(h_);
  orthorhombic_ = std::fabs(a1.y) + std::fabs(a1.z) + std::fabs(a2.x) +
                      std::fabs(a2.z) + std::fabs(a3.x) + std::fabs(a3.y) <
                  1e-12;
}

Cell Cell::orthorhombic(double lx, double ly, double lz, bool px, bool py,
                        bool pz) {
  return Cell({lx, 0, 0}, {0, ly, 0}, {0, 0, lz}, px, py, pz);
}

Cell Cell::cubic(double l) { return orthorhombic(l, l, l); }

std::array<double, 3> Cell::heights() const {
  if (volume_ == 0.0) return {0.0, 0.0, 0.0};
  // Height along axis i = V / |a_j x a_k|.
  std::array<double, 3> out{};
  for (int i = 0; i < 3; ++i) {
    const Vec3 aj = h_.row((i + 1) % 3);
    const Vec3 ak = h_.row((i + 2) % 3);
    out[i] = volume_ / norm(cross(aj, ak));
  }
  return out;
}

Vec3 Cell::minimum_image(Vec3 dr) const {
  if (!periodic()) return dr;
  Vec3 s = to_fractional(dr);
  if (periodic_[0]) s.x -= std::round(s.x);
  if (periodic_[1]) s.y -= std::round(s.y);
  if (periodic_[2]) s.z -= std::round(s.z);
  return to_cartesian(s);
}

Vec3 Cell::image_shift(const Vec3& raw) const {
  if (!periodic()) return {};
  const Vec3 s = to_fractional(raw);
  const int n1 = periodic_[0] ? static_cast<int>(-std::round(s.x)) : 0;
  const int n2 = periodic_[1] ? static_cast<int>(-std::round(s.y)) : 0;
  const int n3 = periodic_[2] ? static_cast<int>(-std::round(s.z)) : 0;
  return shift_vector(n1, n2, n3);
}

}  // namespace tbmd
