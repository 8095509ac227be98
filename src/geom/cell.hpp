#pragma once

/// \file cell.hpp
/// \brief Simulation cell: lattice vectors, periodicity flags, minimum-image
/// convention and coordinate wrapping.

#include <array>

#include "src/geom/mat3.hpp"
#include "src/geom/vec3.hpp"

namespace tbmd {

/// Simulation cell.
///
/// A Cell is a set of three lattice vectors (rows of `h()`) plus a
/// periodicity flag per axis.  Non-periodic ("cluster") systems use the
/// default-constructed cell, which has no lattice and never wraps.
///
/// Minimum-image displacements are computed by rounding in fractional
/// coordinates, which is exact as long as the cutoff is at most half the
/// smallest cell height — the neighbor layer enforces this precondition.
class Cell {
 public:
  /// Non-periodic cluster cell.
  Cell() = default;

  /// General (possibly triclinic) cell from lattice vectors a1, a2, a3.
  Cell(const Vec3& a1, const Vec3& a2, const Vec3& a3, bool px = true,
       bool py = true, bool pz = true);

  /// Orthorhombic cell of edge lengths lx, ly, lz.
  [[nodiscard]] static Cell orthorhombic(double lx, double ly, double lz,
                                         bool px = true, bool py = true,
                                         bool pz = true);

  /// Cubic cell of edge length l, periodic on all axes.
  [[nodiscard]] static Cell cubic(double l);

  /// True if any axis is periodic.
  [[nodiscard]] bool periodic() const {
    return periodic_[0] || periodic_[1] || periodic_[2];
  }

  /// Periodicity of one axis (0 = x, 1 = y, 2 = z).
  [[nodiscard]] bool periodic(int axis) const { return periodic_[axis]; }

  /// Cell matrix; row i is lattice vector a_i.  Zero for cluster cells.
  [[nodiscard]] const Mat3& h() const { return h_; }

  /// Inverse cell matrix (fractional = cartesian * h^-1 row convention).
  [[nodiscard]] const Mat3& h_inverse() const { return hinv_; }

  /// Cell volume (0 for cluster cells).
  [[nodiscard]] double volume() const { return volume_; }

  /// True when lattice vectors are axis-aligned.
  [[nodiscard]] bool orthorhombic() const { return orthorhombic_; }

  /// Perpendicular height of the cell along each axis (distance between the
  /// periodic images of the corresponding face pair).  The minimum-image
  /// convention is valid for displacements shorter than half of these.
  [[nodiscard]] std::array<double, 3> heights() const;

  /// Cartesian -> fractional coordinates.
  [[nodiscard]] Vec3 to_fractional(const Vec3& r) const {
    return row_times(r, hinv_);
  }

  /// Fractional -> Cartesian coordinates.
  [[nodiscard]] Vec3 to_cartesian(const Vec3& s) const {
    return row_times(s, h_);
  }

  /// Minimum-image displacement equivalent to dr.
  [[nodiscard]] Vec3 minimum_image(Vec3 dr) const;

  /// Lattice translation that maps `raw` onto its minimum image, as the
  /// exact integer combination of cell vectors: raw + image_shift(raw) is
  /// the minimum-image displacement.  Unlike `minimum_image(raw) - raw`,
  /// the result carries no rounding noise from `raw` itself, so two
  /// displacements with the same image indices get bit-identical shifts --
  /// the property the neighbor list needs so that stored shifts (and hence
  /// forces) do not depend on when the list was rebuilt.
  [[nodiscard]] Vec3 image_shift(const Vec3& raw) const;

  /// Lattice translation n1*a1 + n2*a2 + n3*a3.
  [[nodiscard]] Vec3 shift_vector(int n1, int n2, int n3) const {
    return static_cast<double>(n1) * h_.row(0) +
           static_cast<double>(n2) * h_.row(1) +
           static_cast<double>(n3) * h_.row(2);
  }

 private:
  Mat3 h_{};
  Mat3 hinv_{};
  double volume_ = 0.0;
  bool orthorhombic_ = true;
  std::array<bool, 3> periodic_{false, false, false};
};

}  // namespace tbmd
