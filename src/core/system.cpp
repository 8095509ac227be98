#include "src/core/system.hpp"

#include "src/util/error.hpp"
#include "src/util/units.hpp"

namespace tbmd {

std::size_t System::add_atom(Element e, const Vec3& position,
                             const Vec3& velocity) {
  species_.push_back(e);
  positions_.push_back(position);
  velocities_.push_back(velocity);
  masses_.push_back(atomic_mass_program(e));
  frozen_.push_back(0);
  return species_.size() - 1;
}

void System::set_species(std::size_t i, Element e) {
  TBMD_REQUIRE(i < size(), "set_species: index out of range");
  species_[i] = e;
  masses_[i] = atomic_mass_program(e);
}

std::size_t System::mobile_count() const {
  std::size_t n = 0;
  for (const auto f : frozen_) n += (f == 0);
  return n;
}

double System::kinetic_energy() const {
  double ke = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (frozen_[i]) continue;
    ke += 0.5 * masses_[i] * norm2_sq(velocities_[i]);
  }
  return ke;
}

double System::temperature() const {
  const std::size_t nm = mobile_count();
  if (nm == 0) return 0.0;
  const double dof = 3.0 * static_cast<double>(nm);
  return 2.0 * kinetic_energy() / (dof * units::kBoltzmann);
}

void System::zero_momentum() {
  Vec3 p{};
  double mtot = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (frozen_[i]) continue;
    p += masses_[i] * velocities_[i];
    mtot += masses_[i];
  }
  if (mtot == 0.0) return;
  const Vec3 vcm = p / mtot;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!frozen_[i]) velocities_[i] -= vcm;
  }
}

int System::total_valence_electrons() const {
  int n = 0;
  for (const Element e : species_) n += valence_electrons(e);
  return n;
}

}  // namespace tbmd
