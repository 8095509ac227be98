#pragma once

/// \file thermostat.hpp
/// \brief Thermostats for canonical (NVT) molecular dynamics.
///
/// The primary thermostat is the Nose-Hoover chain in the half-step
/// splitting of Martyna, Tuckerman & Klein (the formulation popularized by
/// Frenkel & Smit, which the paper's method section follows).  Velocity
/// rescaling and Berendsen are included as simpler baselines and for
/// equilibration.

#include <memory>
#include <string>
#include <vector>

#include "src/core/system.hpp"

namespace tbmd::md {

/// Thermostat interface: acts on velocities around the Verlet update.
class Thermostat {
 public:
  virtual ~Thermostat() = default;

  /// Applied before the first half-kick of velocity Verlet.
  virtual void begin_step(System& system, double dt) = 0;

  /// Applied after the second half-kick.
  virtual void end_step(System& system, double dt) = 0;

  /// Thermostat contribution to the conserved quantity of the extended
  /// system (0 for thermostats without one).
  [[nodiscard]] virtual double energy(const System& system) const = 0;

  /// Target temperature (K).
  [[nodiscard]] double target() const { return target_; }
  virtual void set_target(double kelvin) { target_ = kelvin; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Internal dynamical state as a flat vector (Nose-Hoover chain
  /// positions/velocities, rescale step counter, ...).  Together with
  /// target(), this is everything a checkpoint must carry to resume the
  /// extended-system dynamics bit-identically.  Stateless thermostats
  /// return an empty vector.
  [[nodiscard]] virtual std::vector<double> state() const { return {}; }

  /// Restore a snapshot taken with state().  Throws tbmd::Error when the
  /// vector does not match this thermostat's layout.
  virtual void set_state(const std::vector<double>& state);

 protected:
  explicit Thermostat(double target_kelvin) : target_(target_kelvin) {}
  double target_;
};

/// Which thermostat a ThermostatSpec resolves to.
enum class ThermostatKind {
  kNone,         ///< no thermostat: NVE
  kRescale,      ///< VelocityRescaleThermostat
  kBerendsen,    ///< BerendsenThermostat
  kNoseHoover,   ///< NoseHooverThermostat
};

/// Declarative, value-semantic thermostat description (kind + parameters).
///
/// MdOptions carries one of these instead of an owned Thermostat pointer,
/// so integration options can be copied, compared, serialized into job
/// specs and checkpoints, and stamped out once per worker by the job
/// runner.  The driver resolves the spec into a concrete Thermostat with
/// resolve(); fields irrelevant to the chosen kind are ignored.
struct ThermostatSpec {
  ThermostatKind kind = ThermostatKind::kNone;
  double target_kelvin = 300.0;
  double tau_fs = 50.0;    ///< coupling time constant (Berendsen/Nose-Hoover)
  int interval = 1;        ///< rescale cadence (VelocityRescale)
  int chain_length = 2;    ///< Nose-Hoover chain length

  /// NVE (no thermostat).
  [[nodiscard]] static ThermostatSpec none() { return {}; }

  [[nodiscard]] static ThermostatSpec rescale(double target_kelvin,
                                              int interval = 1) {
    ThermostatSpec s;
    s.kind = ThermostatKind::kRescale;
    s.target_kelvin = target_kelvin;
    s.interval = interval;
    return s;
  }

  [[nodiscard]] static ThermostatSpec berendsen(double target_kelvin,
                                                double tau_fs = 100.0) {
    ThermostatSpec s;
    s.kind = ThermostatKind::kBerendsen;
    s.target_kelvin = target_kelvin;
    s.tau_fs = tau_fs;
    return s;
  }

  [[nodiscard]] static ThermostatSpec nose_hoover(double target_kelvin,
                                                  double tau_fs = 50.0,
                                                  int chain_length = 2) {
    ThermostatSpec s;
    s.kind = ThermostatKind::kNoseHoover;
    s.target_kelvin = target_kelvin;
    s.tau_fs = tau_fs;
    s.chain_length = chain_length;
    return s;
  }

  /// True when the spec resolves to an actual thermostat (NVT ensemble).
  [[nodiscard]] bool active() const { return kind != ThermostatKind::kNone; }

  /// Construct the thermostat this spec describes; nullptr for kNone.
  [[nodiscard]] std::unique_ptr<Thermostat> resolve() const;

  /// Spec from its config spelling ("none"/"nve", "rescale", "berendsen",
  /// "nose-hoover"); throws tbmd::Error on unknown names.
  [[nodiscard]] static ThermostatSpec by_name(const std::string& name,
                                              double target_kelvin);
};

/// Hard velocity rescaling to the exact target temperature every
/// `interval` steps.  No conserved quantity; equilibration tool.
class VelocityRescaleThermostat final : public Thermostat {
 public:
  VelocityRescaleThermostat(double target_kelvin, int interval = 1)
      : Thermostat(target_kelvin), interval_(interval) {}

  void begin_step(System&, double) override {}
  void end_step(System& system, double dt) override;
  [[nodiscard]] double energy(const System&) const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "rescale"; }
  [[nodiscard]] std::vector<double> state() const override {
    return {static_cast<double>(step_)};
  }
  void set_state(const std::vector<double>& state) override;

 private:
  int interval_;
  long step_ = 0;
};

/// Berendsen weak-coupling thermostat with time constant tau (fs).
/// Exponential relaxation towards the target; not canonical, but smooth.
class BerendsenThermostat final : public Thermostat {
 public:
  BerendsenThermostat(double target_kelvin, double tau_fs = 100.0)
      : Thermostat(target_kelvin), tau_(tau_fs) {}

  void begin_step(System&, double) override {}
  void end_step(System& system, double dt) override;
  [[nodiscard]] double energy(const System&) const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "berendsen"; }

 private:
  double tau_;
};

/// Nose-Hoover chain thermostat (chain length 1 = plain Nose-Hoover).
///
/// Thermostat masses default to Q_1 = N_f kB T tau^2, Q_k = kB T tau^2 for
/// the rest of the chain.  The conserved quantity of the extended system is
///   H' = KE + PE + sum_k Q_k v_k^2 / 2 + N_f kB T eta_1 + kB T sum_{k>1} eta_k
/// and is exposed through energy() (minus KE + PE, which the driver adds).
class NoseHooverThermostat final : public Thermostat {
 public:
  /// \param target_kelvin  target temperature
  /// \param tau_fs         thermostat time constant (fs)
  /// \param chain_length   1 for plain Nose-Hoover, >= 2 for chains
  NoseHooverThermostat(double target_kelvin, double tau_fs = 50.0,
                       int chain_length = 2);

  void begin_step(System& system, double dt) override { chain_step(system, dt); }
  void end_step(System& system, double dt) override { chain_step(system, dt); }

  [[nodiscard]] double energy(const System& system) const override;
  [[nodiscard]] std::string name() const override { return "nose-hoover"; }

  /// Gradually change the target temperature (the "0.5 K/fs ramp" protocol
  /// of the paper's simulations): called once per step by the driver when a
  /// ramp is active.
  void set_target(double kelvin) override { target_ = kelvin; }

  /// Thermostat degrees of freedom (for tests/diagnostics).
  [[nodiscard]] const std::vector<double>& positions() const { return eta_; }
  [[nodiscard]] const std::vector<double>& velocities() const { return veta_; }

  /// Chain state as {eta_1..eta_m, veta_1..veta_m}.
  [[nodiscard]] std::vector<double> state() const override;
  void set_state(const std::vector<double>& state) override;

 private:
  void chain_step(System& system, double dt);
  [[nodiscard]] double mass(std::size_t k, double dof) const;

  double tau_;
  std::vector<double> eta_;   ///< thermostat positions
  std::vector<double> veta_;  ///< thermostat velocities
};

}  // namespace tbmd::md
