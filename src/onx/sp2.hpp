#pragma once

/// \file sp2.hpp
/// \brief SP2 (second-order spectral projection) density-matrix
/// purification.
///
/// The trace-correcting alternative to Palser-Manolopoulos: starting from
/// a linear map of H with spectrum in [0, 1], repeatedly apply X^2 or
/// 2X - X^2, choosing whichever moves the trace towards the occupation
/// count.  Each iteration needs ONE sparse multiply (PM needs two), at the
/// cost of more iterations -- an ablation axis exp_a1 measures.  SP2 runs
/// through the same driver as PM (see purification.hpp), so it shares the
/// symmetric-half BSR substrate, tile truncation, cached SpMM patterns and
/// the NumericsSpec precision policy.

#include "src/onx/purification.hpp"

namespace tbmd::onx {

/// SP2 purification of the symmetric blocked Hamiltonian with `n_occupied`
/// doubly occupied states.  Options, result and workspace semantics match
/// palser_manolopoulos().
[[nodiscard]] PurificationResult sp2_purification(
    const BlockSparseMatrix& h, int n_occupied,
    const PurificationOptions& options = {},
    PurificationWorkspace* workspace = nullptr);

}  // namespace tbmd::onx
