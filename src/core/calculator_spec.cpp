#include "src/core/calculator_spec.hpp"

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
