#include "src/core/calculator_spec.hpp"

#include <sstream>

#include "src/onx/on_calculator.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/error.hpp"
#include "src/util/string_util.hpp"

namespace tbmd {

CalcMode CalculatorSpec::mode_by_name(const std::string& name) {
  const std::string mode = to_lower(name);
  if (mode == "exact" || mode == "tb-exact") return CalcMode::kExact;
  if (mode == "on" || mode == "tb-on" || mode == "order-n") {
    return CalcMode::kOrderN;
  }
  throw Error("CalculatorSpec: unknown mode '" + name + "'");
}

std::string CalculatorSpec::mode_name() const {
  return mode == CalcMode::kExact ? "exact" : "on";
}

std::string CalculatorSpec::fingerprint() const {
  std::ostringstream os;
  os.precision(17);
  os << mode_name() << ";skin=" << skin
     << ";etemp=" << electronic_temperature;
  if (mode == CalcMode::kExact) {
    os << ";spectrum="
       << (spectrum == SpectrumPolicy::kAuto
               ? "auto"
               : (spectrum == SpectrumPolicy::kFull ? "full" : "partial"))
       << ";eigenvalues=" << (report_eigenvalues ? 1 : 0);
  } else {
    os << ";tol=" << numerics.drop_tolerance
       << ";loosen=" << numerics.schedule_loosening
       << ";prec=" << numerics.precision_name()
       << ";reuse=" << (reuse_patterns ? 1 : 0) << ";domains=" << domains
       << ";cachebounds=" << (cache_spectral_bounds ? 1 : 0)
       << ";bondskin=" << bond_reuse_skin;
    // A disabled HealthSpec never changes results, so only the enabled
    // form contributes to the identity (and a triggered retry rung does
    // change results -- the ladder knobs are all relevant then).
    if (health.enabled) {
      os << ";health=1;hmaxf=" << health.max_force
         << ";hmaxe=" << health.max_energy_per_atom
         << ";hfp64=" << (health.fp64_retry ? 1 : 0)
         << ";htight=" << (health.tighten_retry ? 1 : 0)
         << ";htf=" << health.tighten_factor
         << ";hexact=" << (health.exact_fallback ? 1 : 0);
    }
  }
  // `threads` is deliberately absent: it is an execution-resource hint
  // (see the field's doc), and two specs differing only there must share
  // a cached calculator.
  return os.str();
}

std::unique_ptr<Calculator> make_calculator(const tb::TbModel& model,
                                            const CalculatorSpec& spec) {
  if (spec.mode == CalcMode::kExact) {
    return std::make_unique<tb::TightBindingCalculator>(model, spec);
  }
  return std::make_unique<onx::OrderNCalculator>(model, spec);
}

std::unique_ptr<Calculator> make_calculator(const tb::TbModel& model,
                                            const System& system,
                                            const CalculatorSpec& spec) {
  for (const Element e : system.species()) {
    TBMD_REQUIRE(model.species_index(e) >= 0,
                 std::string("make_calculator: model '") + model.name +
                     "' has no parameters for element " +
                     std::string(element_symbol(e)));
  }
  return make_calculator(model, spec);
}

}  // namespace tbmd
