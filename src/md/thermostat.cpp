#include "src/md/thermostat.hpp"

#include <cmath>

#include "src/util/error.hpp"
#include "src/util/string_util.hpp"
#include "src/util/units.hpp"

namespace tbmd::md {

void Thermostat::set_state(const std::vector<double>& state) {
  TBMD_REQUIRE(state.empty(),
               name() + ": stateless thermostat given nonempty state");
}

std::unique_ptr<Thermostat> ThermostatSpec::resolve() const {
  switch (kind) {
    case ThermostatKind::kNone:
      return nullptr;
    case ThermostatKind::kRescale:
      return std::make_unique<VelocityRescaleThermostat>(target_kelvin,
                                                         interval);
    case ThermostatKind::kBerendsen:
      return std::make_unique<BerendsenThermostat>(target_kelvin, tau_fs);
    case ThermostatKind::kNoseHoover:
      return std::make_unique<NoseHooverThermostat>(target_kelvin, tau_fs,
                                                    chain_length);
  }
  throw Error("ThermostatSpec: invalid kind");
}

ThermostatSpec ThermostatSpec::by_name(const std::string& name,
                                       double target_kelvin) {
  const std::string kind = to_lower(name);
  if (kind == "none" || kind == "nve") return none();
  if (kind == "rescale") return rescale(target_kelvin);
  if (kind == "berendsen") return berendsen(target_kelvin);
  if (kind == "nose-hoover" || kind == "nosehoover" || kind == "nvt") {
    return nose_hoover(target_kelvin);
  }
  throw Error("ThermostatSpec: unknown thermostat '" + name + "'");
}

void VelocityRescaleThermostat::set_state(const std::vector<double>& state) {
  TBMD_REQUIRE(state.size() == 1, "rescale: state must be {step}");
  step_ = static_cast<long>(state[0]);
}

void VelocityRescaleThermostat::end_step(System& system, double /*dt*/) {
  if (interval_ > 1 && (step_++ % interval_) != 0) return;
  const double t = system.temperature();
  if (t <= 0.0) return;
  const double s = std::sqrt(target_ / t);
  for (std::size_t i = 0; i < system.size(); ++i) {
    if (!system.frozen(i)) system.velocities()[i] *= s;
  }
}

void BerendsenThermostat::end_step(System& system, double dt) {
  const double t = system.temperature();
  if (t <= 0.0) return;
  const double s =
      std::sqrt(1.0 + (dt / tau_) * (target_ / t - 1.0));
  for (std::size_t i = 0; i < system.size(); ++i) {
    if (!system.frozen(i)) system.velocities()[i] *= s;
  }
}

NoseHooverThermostat::NoseHooverThermostat(double target_kelvin, double tau_fs,
                                           int chain_length)
    : Thermostat(target_kelvin), tau_(tau_fs) {
  TBMD_REQUIRE(chain_length >= 1, "nose-hoover: chain length must be >= 1");
  TBMD_REQUIRE(tau_fs > 0.0, "nose-hoover: tau must be positive");
  eta_.assign(chain_length, 0.0);
  veta_.assign(chain_length, 0.0);
}

double NoseHooverThermostat::mass(std::size_t k, double dof) const {
  const double kt = units::kBoltzmann * target_;
  return (k == 0 ? dof : 1.0) * kt * tau_ * tau_;
}

void NoseHooverThermostat::chain_step(System& system, double dt) {
  const double dof = 3.0 * static_cast<double>(system.mobile_count());
  if (dof == 0.0) return;
  const double kt = units::kBoltzmann * target_;
  const std::size_t m = eta_.size();
  const double dt2 = 0.5 * dt;
  const double dt4 = 0.25 * dt;
  const double dt8 = 0.125 * dt;

  double ke2 = 2.0 * system.kinetic_energy();

  // Update chain tail -> head.
  for (std::size_t k = m; k-- > 0;) {
    const double gk =
        (k == 0) ? (ke2 - dof * kt) / mass(0, dof)
                 : (mass(k - 1, dof) * veta_[k - 1] * veta_[k - 1] - kt) /
                       mass(k, dof);
    if (k + 1 < m) {
      const double decay = std::exp(-dt8 * veta_[k + 1]);
      veta_[k] = veta_[k] * decay * decay + gk * dt4 * decay;
    } else {
      veta_[k] += gk * dt4;
    }
  }

  // Scale particle velocities and advance thermostat positions.
  const double scale = std::exp(-dt2 * veta_[0]);
  for (std::size_t i = 0; i < system.size(); ++i) {
    if (!system.frozen(i)) system.velocities()[i] *= scale;
  }
  ke2 *= scale * scale;
  for (std::size_t k = 0; k < m; ++k) eta_[k] += dt2 * veta_[k];

  // Update chain head -> tail.
  for (std::size_t k = 0; k < m; ++k) {
    const double gk =
        (k == 0) ? (ke2 - dof * kt) / mass(0, dof)
                 : (mass(k - 1, dof) * veta_[k - 1] * veta_[k - 1] - kt) /
                       mass(k, dof);
    if (k + 1 < m) {
      const double decay = std::exp(-dt8 * veta_[k + 1]);
      veta_[k] = veta_[k] * decay * decay + gk * dt4 * decay;
    } else {
      veta_[k] += gk * dt4;
    }
  }
}

std::vector<double> NoseHooverThermostat::state() const {
  std::vector<double> s;
  s.reserve(2 * eta_.size());
  s.insert(s.end(), eta_.begin(), eta_.end());
  s.insert(s.end(), veta_.begin(), veta_.end());
  return s;
}

void NoseHooverThermostat::set_state(const std::vector<double>& state) {
  TBMD_REQUIRE(state.size() == 2 * eta_.size(),
               "nose-hoover: state must be {eta..., veta...} for the "
               "configured chain length");
  const std::size_t m = eta_.size();
  for (std::size_t k = 0; k < m; ++k) eta_[k] = state[k];
  for (std::size_t k = 0; k < m; ++k) veta_[k] = state[m + k];
}

double NoseHooverThermostat::energy(const System& system) const {
  const double dof = 3.0 * static_cast<double>(system.mobile_count());
  const double kt = units::kBoltzmann * target_;
  double e = 0.0;
  for (std::size_t k = 0; k < eta_.size(); ++k) {
    e += 0.5 * mass(k, dof) * veta_[k] * veta_[k];
    e += (k == 0 ? dof : 1.0) * kt * eta_[k];
  }
  return e;
}

}  // namespace tbmd::md
