#include "src/onx/purification.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "src/util/error.hpp"
#include "src/util/fault_point.hpp"

namespace tbmd::onx {

namespace {

/// Initial map P0 = h H + eye I.
struct Seed {
  double h, eye;
};

/// Traces of the current iterate's powers (p3 only for cubic methods).
struct Traces {
  double p, p2, p3;
};

/// Polynomial update P <- c0 P + c1 P^2 + c2 P^3.
struct Poly {
  double c0, c1, c2;
};

/// McWeeny's 3 P^2 - 2 P^3: every method's final polish at the tight
/// tolerance.
constexpr Poly kMcWeeny{0.0, 3.0, -2.0};

/// What sets one purification method apart from the others; the driver
/// below owns everything else.
struct Method {
  /// Seed coefficients for H and its spectral enclosure.
  std::function<Seed(const BlockSparseMatrix&, const linalg::SpectralBounds&)>
      seed;
  /// The update reads P^3 (a second SpMM per iteration).
  bool cubic;
  /// This iteration's update from the traces; any non-finite coefficient
  /// marks it undefined (a stalled, near-idempotent P).
  std::function<Poly(const Traces&)> step;
};

/// Range guard shared by every entry point.  Returns true, with `out`
/// holding the converged empty density, when there is nothing to purify.
bool nothing_to_purify(const BlockSparseMatrix& h, int n_occupied,
                       PurificationResult& out) {
  const std::size_t n = h.size();
  TBMD_REQUIRE(n_occupied >= 0 && static_cast<std::size_t>(n_occupied) <= n,
               "purification: occupied count out of range");
  if (n != 0 && n_occupied != 0) return false;
  out.density = BlockSparseMatrix::zeros_like(h);
  out.converged = true;
  return true;
}

/// P <- c0 P + c1 P^2 + c2 P^3 on the workspace buffers.
void apply(const Poly& u, double drop, PurificationWorkspace& ws) {
  if (u.c2 == 0.0) {
    if (u.c0 == 0.0 && u.c1 == 1.0) {
      std::swap(ws.p, ws.p2);
      return;
    }
    ws.p.combine_into(u.c0, ws.p2, u.c1, drop, ws.tmp, ws.scratch);
    std::swap(ws.p, ws.tmp);
  } else if (u.c0 == 0.0) {
    // P is not an operand: write directly.
    ws.p2.combine_into(u.c1, ws.p3, u.c2, drop, ws.p, ws.scratch);
  } else {
    ws.p.combine_into(u.c0, ws.p2, u.c1, drop, ws.tmp, ws.scratch);
    ws.tmp.combine_into(1.0, ws.p3, u.c2, drop, ws.p, ws.scratch);
  }
}

/// The one purification loop: seeding, drop schedule, the fp32 phase and
/// its promotion triggers, fp64 convergence/stagnation, and the hand-back.
PurificationResult purify(const BlockSparseMatrix& h, int n_occupied,
                          const Method& method,
                          const PurificationOptions& options,
                          PurificationWorkspace* workspace) {
  PurificationResult out;
  if (nothing_to_purify(h, n_occupied, out)) return out;
  const std::size_t n = h.size();

  PurificationWorkspace local;
  PurificationWorkspace& ws = workspace != nullptr ? *workspace : local;

  // Fault sites (inert unless armed; see util/fault_point.hpp): a forced
  // stall reports converged = false with an otherwise ordinary density --
  // the ladder's non-convergence drill -- and the NaN injection below
  // corrupts one seed entry, which two multiplies spread over the whole
  // density matrix (the non-finite drill).
  const bool inject_stall = fault::fire(fault::kOnxNoConverge);

  const linalg::SpectralBounds bounds =
      options.have_bounds ? options.bounds : h.gershgorin_bounds();
  const Seed seed = method.seed(h, bounds);
  if (!ws.eye.layout_matches(h)) ws.eye = BlockSparseMatrix::identity_like(h);
  h.combine_into(seed.h, ws.eye, seed.eye, options.drop_tolerance, ws.p,
                 ws.scratch);

  if (fault::fire(fault::kOnxNanTile) && !ws.p.values().empty()) {
    ws.p.values_mutable()[0] = std::numeric_limits<double>::quiet_NaN();
  }

  // Truncation sets a noise floor below which idempotency cannot improve:
  // converge when tr(P - P^2)/N reaches whichever is larger, the requested
  // tolerance or the drop threshold.
  const double effective_tol =
      std::max(options.idempotency_tolerance, options.drop_tolerance);
  double prev_idem = 1e300;

  // Mixed mode: the loose-early iterations run their SpMMs on fp32 tiles
  // (traces and truncation thresholds stay fp64), promoted back to fp64
  // tiles for the tight-late iterations.  Convergence is never declared on
  // fp32 tiles -- any criterion that fires there triggers promotion
  // instead, and the fp64 iterations re-assess it from scratch.
  if (options.precision == PrecisionMode::kMixed) {
    ws.p.convert_precision(TilePrecision::kF32);
  }

  const auto cube = [&](double drop) {
    ws.p2.multiply_sym_into(ws.p, drop, ws.p3, ws.scratch, ws.patterns.next());
  };

  ws.patterns.begin_run();
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double drop = options.drop_at(it);
    ws.p.multiply_sym_into(ws.p, drop, ws.p2, ws.scratch, ws.patterns.next());
    if (method.cubic) cube(drop);

    const Traces t{ws.p.trace(), ws.p2.trace(),
                   method.cubic ? ws.p3.trace() : 0.0};
    const double idem = t.p - t.p2;
    out.iterations = it;
    out.idempotency_error = idem;
    const double per_state = std::fabs(idem) / static_cast<double>(n);
    // Stagnation at the truncation noise floor: further iterations cannot
    // improve a truncated density matrix.
    const bool at_floor = std::fabs(idem) >= 0.5 * prev_idem &&
                          per_state < 50.0 * options.drop_tolerance;
    const Poly u = method.step(t);
    const bool defined =
        std::isfinite(u.c0) && std::isfinite(u.c1) && std::isfinite(u.c2);

    if (ws.p.precision() == TilePrecision::kF32) {
      ++out.numerics.fp32_iterations;
      PromotionTrigger trig = PromotionTrigger::kNone;
      if (per_state < effective_tol || at_floor || !defined) {
        trig = PromotionTrigger::kStagnation;
      } else if (per_state < options.promote_threshold) {
        trig = PromotionTrigger::kThreshold;
      } else if (options.promote_iteration > 0 &&
                 it >= options.promote_iteration) {
        trig = PromotionTrigger::kIteration;
      }
      // A stalled iteration skips its update (near-idempotent P makes it
      // ill-conditioned); a threshold/iteration-cap promotion still takes
      // this step's update with it.
      if (trig != PromotionTrigger::kStagnation) apply(u, drop, ws);
      if (trig != PromotionTrigger::kNone) {
        ws.p.convert_precision(TilePrecision::kF64);
        out.numerics.promoted_at = it;
        out.numerics.trigger = trig;
        // The fp64 phase re-assesses stagnation with a fresh history.
        prev_idem = 1e300;
      } else {
        prev_idem = std::fabs(idem);
      }
      continue;
    }
    ++out.numerics.fp64_iterations;
    if (per_state < effective_tol) {
      out.converged = true;
      if (!method.cubic) cube(options.drop_tolerance);
      apply(kMcWeeny, options.drop_tolerance, ws);
      break;
    }
    if (at_floor) {
      out.converged = true;
      break;
    }
    prev_idem = std::fabs(idem);
    if (!defined) break;
    apply(u, drop, ws);
  }

  // An fp32 phase that exhausted max_iterations hands back fp64 anyway:
  // the density matrix, band energy and force contractions are fp64
  // artifacts in every mode.
  if (ws.p.precision() == TilePrecision::kF32) {
    ws.p.convert_precision(TilePrecision::kF64);
  }

  // Band energy through the single upper-half trace_of_product pass.
  out.band_energy = 2.0 * ws.p.trace_of_product(h);
  out.fill_fraction = ws.p.fill_fraction();
  out.density = std::move(ws.p);
  ws.p = BlockSparseMatrix::zeros_like(h);
  if (inject_stall) out.converged = false;
  return out;
}

}  // namespace

PurificationResult palser_manolopoulos(const BlockSparseMatrix& h,
                                       int n_occupied,
                                       const PurificationOptions& options,
                                       PurificationWorkspace* workspace) {
  // P0 = lambda (mu I - H) + theta I with spectrum in [0, 1] and trace
  // exactly n_occupied, mu = tr(H) / N; then the trace-conserving cubic
  // whose shape follows c = tr(P^2 - P^3) / tr(P - P^2).
  const Method pm{
      [n_occupied](const BlockSparseMatrix& hh,
                   const linalg::SpectralBounds& b) {
        const auto n = static_cast<double>(hh.size());
        const double theta = static_cast<double>(n_occupied) / n;
        const double mu = hh.trace() / n;
        const double lambda =
            std::min(theta / std::max(b.hi - mu, 1e-12),
                     (1.0 - theta) / std::max(mu - b.lo, 1e-12));
        return Seed{-lambda, lambda * mu + theta};
      },
      true,
      [](const Traces& t) {
        const double c = (t.p2 - t.p3) / (t.p - t.p2);
        if (c >= 0.5) return Poly{0.0, (1.0 + c) / c, -1.0 / c};
        return Poly{(1.0 - 2.0 * c) / (1.0 - c), (1.0 + c) / (1.0 - c),
                    -1.0 / (1.0 - c)};
      }};
  return purify(h, n_occupied, pm, options, workspace);
}

PurificationResult sp2_purification(const BlockSparseMatrix& h,
                                    int n_occupied,
                                    const PurificationOptions& options,
                                    PurificationWorkspace* workspace) {
  // X0 = (emax I - H) / (emax - emin), occupied states mapped towards 1;
  // then X^2 or 2X - X^2, whichever moves tr(X) towards n_occupied.
  const auto target = static_cast<double>(n_occupied);
  const Method sp2{
      [](const BlockSparseMatrix& /*hh*/, const linalg::SpectralBounds& b) {
        const double width = std::max(b.width(), 1e-12);
        return Seed{-1.0 / width, b.hi / width};
      },
      false,
      [target](const Traces& t) {
        if (std::fabs(t.p2 - target) < std::fabs(2.0 * t.p - t.p2 - target)) {
          return Poly{0.0, 1.0, 0.0};
        }
        return Poly{2.0, -1.0, 0.0};
      }};
  return purify(h, n_occupied, sp2, options, workspace);
}

}  // namespace tbmd::onx
