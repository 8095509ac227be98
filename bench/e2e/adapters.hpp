#pragma once

/// \file adapters.hpp
/// \brief Traced stand-ins for the two TB engines.
///
/// Each adapter rebuilds its engine's compute() from the public layer calls
/// (NeighborList::ensure, BondTable::build, H assembly, eigensolver or
/// purification, occupations, density matrix, force contractions, repulsive
/// term) and records a span around every call, so the traced run can split
/// a step by layer without instrumenting src/.  They cover the settings the
/// workloads use -- T_el = 0; O(N) without the guardrail ladder, cached
/// bounds, bond reuse or domain reordering -- and refuse anything else.
/// The traced driver checks each against its engine at step 0.

#include <memory>

#include "src/core/calculator_spec.hpp"
#include "src/tb/tb_model.hpp"
#include "trace.hpp"

namespace e2e {

/// Work counters accumulated across compute() calls.
struct LayerCounts {
  long neighbor_rebuilds = 0;
  /// Eigenpairs computed and matrix dimension, summed over calls.
  double eig_pairs = 0.0, eig_norb = 0.0;
  long purify_iterations = 0, fp32_iterations = 0, unconverged = 0;
  /// Sum over calls of P's fill fraction and stored size (MB, computed
  /// from the payload and index arrays).
  double density_fill = 0.0, density_mbytes = 0.0;
  /// Cumulative SpMM symbolic-phase builds and frozen-pattern reuses.
  long spmm_symbolic = 0, spmm_reuses = 0;
};

class TracedCalculator : public tbmd::Calculator {
 public:
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }

 protected:
  explicit TracedCalculator(Tracer& tracer) : tracer_(&tracer) {}
  Tracer* tracer_;
  LayerCounts counts_;
};

/// The adapter for spec.mode, recording into `tracer` (which must outlive
/// it).
[[nodiscard]] std::unique_ptr<TracedCalculator> make_traced_calculator(
    const tbmd::tb::TbModel& model, const tbmd::CalculatorSpec& spec,
    Tracer& tracer);

}  // namespace e2e
