#pragma once

/// \file tb_calculator.hpp
/// \brief The exact-diagonalization tight-binding calculator: the library's
/// primary model, reproducing the TBMD method of the paper.
///
/// One compute() call performs the canonical TBMD step pipeline:
///   neighbors -> bond table (batched SK blocks + derivatives) ->
///   Hamiltonian -> eigenvalues (O(N^3) reduction + QL) -> occupations ->
///   eigenvectors of the weighted states -> density matrix ->
///   Hellmann-Feynman forces -> repulsive term,
/// where the Hamiltonian, force and repulsive phases all contract from the
/// shared per-step BondTable.  step_report() holds the call's per-phase
/// wall times, whether the neighbor list was rebuilt and the number of
/// eigenpairs computed, so the experiment harness can regenerate the
/// per-phase breakdown tables.

#include <memory>

#include "src/core/calculator.hpp"
#include "src/core/calculator_spec.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/tb_model.hpp"

namespace tbmd::tb {

/// Exact-diagonalization TBMD calculator.  Reads the spec's `skin`,
/// `electronic_temperature`, `spectrum` and `report_eigenvalues`.
class TightBindingCalculator final : public Calculator {
 public:
  /// Throws tbmd::Error when `spec.mode` names the O(N) engine.
  TightBindingCalculator(TbModel model,
                         CalculatorSpec spec = CalculatorSpec::exact());

  ForceResult compute(const System& system) override;

  [[nodiscard]] std::string name() const override {
    return "tb-exact[" + model_.name + "]";
  }

  [[nodiscard]] const TbModel& model() const { return model_; }

 private:
  TbModel model_;
  CalculatorSpec spec_;
  NeighborList list_;
  /// Per-step table of SK blocks/derivatives + repulsive pair values,
  /// rebuilt each compute() (storage reused) and shared by the Hamiltonian,
  /// force and repulsive phases.
  BondTable table_;
};

}  // namespace tbmd::tb
