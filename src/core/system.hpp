#pragma once

/// \file system.hpp
/// \brief The simulated system: species, positions, velocities, cell.

#include <cstdint>
#include <vector>

#include "src/core/element.hpp"
#include "src/geom/cell.hpp"
#include "src/geom/vec3.hpp"

namespace tbmd {

/// A collection of atoms in a (possibly periodic) cell.
///
/// Positions are in angstrom, velocities in angstrom/fs.  Masses are stored
/// in program units (eV fs^2/A^2) so kinetic energy and accelerations need
/// no further conversion.  Atoms may be frozen (their velocities and forces
/// are zeroed by the MD engine), which reproduces the fixed-boundary trick
/// used in tube/edge simulations of the era.
class System {
 public:
  System() = default;

  /// Construct with a cell and no atoms.
  explicit System(Cell cell) : cell_(std::move(cell)) {}

  /// Append one atom; returns its index.
  std::size_t add_atom(Element e, const Vec3& position,
                       const Vec3& velocity = {});

  [[nodiscard]] std::size_t size() const { return species_.size(); }

  [[nodiscard]] const Cell& cell() const { return cell_; }
  void set_cell(Cell cell) { cell_ = std::move(cell); }

  [[nodiscard]] const std::vector<Vec3>& positions() const {
    return positions_;
  }
  [[nodiscard]] std::vector<Vec3>& positions() { return positions_; }

  [[nodiscard]] const std::vector<Vec3>& velocities() const {
    return velocities_;
  }
  [[nodiscard]] std::vector<Vec3>& velocities() { return velocities_; }

  [[nodiscard]] const std::vector<Element>& species() const {
    return species_;
  }

  /// Replace the species of atom i (used for substitutional doping).
  void set_species(std::size_t i, Element e);

  /// Mass of atom i in program units.
  [[nodiscard]] double mass(std::size_t i) const { return masses_[i]; }

  /// Freeze or unfreeze atom i (frozen atoms do not move during MD/relaxation).
  void set_frozen(std::size_t i, bool frozen) { frozen_[i] = frozen ? 1 : 0; }
  [[nodiscard]] bool frozen(std::size_t i) const { return frozen_[i] != 0; }

  /// Number of unfrozen atoms.
  [[nodiscard]] std::size_t mobile_count() const;

  /// Kinetic energy in eV (frozen atoms excluded).
  [[nodiscard]] double kinetic_energy() const;

  /// Instantaneous temperature in K from the equipartition theorem,
  /// using 3*N_mobile degrees of freedom (no constraint corrections).
  [[nodiscard]] double temperature() const;

  /// Remove the net momentum of the mobile atoms.
  void zero_momentum();

  /// Minimum-image displacement from atom i to atom j.
  [[nodiscard]] Vec3 displacement(std::size_t i, std::size_t j) const {
    return cell_.minimum_image(positions_[j] - positions_[i]);
  }

  /// Distance between atoms i and j under minimum image.
  [[nodiscard]] double distance(std::size_t i, std::size_t j) const {
    return norm(displacement(i, j));
  }

  /// Total valence electrons (sets the band filling in TB calculators).
  [[nodiscard]] int total_valence_electrons() const;

 private:
  Cell cell_;
  std::vector<Vec3> positions_;
  std::vector<Vec3> velocities_;
  std::vector<Element> species_;
  std::vector<double> masses_;
  std::vector<std::uint8_t> frozen_;
};

}  // namespace tbmd
