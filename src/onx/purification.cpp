#include "src/onx/purification.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "src/onx/sp2.hpp"
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

/// McWeeny's 3 P^2 - 2 P^3: the grand-canonical update and every method's
/// final polish at the tight tolerance.
constexpr Poly kMcWeeny{0.0, 3.0, -2.0};

/// What sets one purification method apart from the others; the driver
/// below owns everything else.
struct Method {
  /// Seed coefficients for the half-stored H and its spectral enclosure.
  std::function<Seed(const BlockSparseMatrix&, const linalg::SpectralBounds&)>
      seed;
  /// The update reads P^3 (a second SpMM per iteration).
  bool cubic;
  /// This iteration's update from the traces; any non-finite coefficient
  /// marks it undefined (a stalled, near-idempotent P).
  std::function<Poly(const Traces&)> step;
};

/// Range guard shared by every entry point (`n_occupied` is empty for a
/// grand-canonical run, whose electron count is an output).  Returns true,
/// with `out` holding the converged empty density, when there is nothing
/// to purify.
bool nothing_to_purify(const BlockSparseMatrix& h,
                       std::optional<int> n_occupied,
                       PurificationResult& out) {
  const std::size_t n = h.size();
  TBMD_REQUIRE(!n_occupied || (*n_occupied >= 0 &&
                               static_cast<std::size_t>(*n_occupied) <= n),
               "purification: occupied count out of range");
  if (n != 0 && n_occupied.value_or(1) != 0) return false;
  out.density = h.uniform_blocks() ? BlockSparseMatrix(n, h.block_size(), true)
                                   : BlockSparseMatrix(h.block_dims(), true);
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
PurificationResult purify(const BlockSparseMatrix& h,
                          std::optional<int> n_occupied, const Method& method,
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

  // The loop runs entirely in symmetric-half storage; a full-stored
  // operand (convenience callers) is halved on entry.
  BlockSparseMatrix h_half_storage;
  const BlockSparseMatrix* hp = &h;
  if (!h.symmetric()) {
    h_half_storage = h.to_symmetric_half();
    hp = &h_half_storage;
  }
  const BlockSparseMatrix& hh = *hp;

  const linalg::SpectralBounds bounds =
      options.have_bounds ? options.bounds : hh.gershgorin_bounds();
  const Seed seed = method.seed(hh, bounds);
  if (!ws.eye.symmetric() || !ws.eye.layout_matches(hh)) {
    ws.eye = BlockSparseMatrix::identity_like(hh);
  }
  hh.combine_into(seed.h, ws.eye, seed.eye, options.drop_tolerance, ws.p,
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

  // Band energy through the symmetric-half trace_of_product specialization
  // (single upper-half pass, 2x off-diagonal weight).
  out.band_energy = 2.0 * ws.p.trace_of_product(hh);
  out.fill_fraction = ws.p.fill_fraction();
  out.density = std::move(ws.p);
  ws.p = BlockSparseMatrix::zeros_like(hh);
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

PurificationResult purify_grand_canonical(const BlockSparseMatrix& h,
                                          double mu,
                                          const PurificationOptions& options,
                                          PurificationWorkspace* workspace) {
  // Step-function seed X0 = 1/2 I + (mu I - H) / (2 W).  W is the largest
  // distance from mu to the spectral enclosure, so every eigenvalue of X0
  // lands in [0, 1] with the occupied/empty split exactly at 1/2; the
  // trace-free McWeeny polynomial then sharpens the step without moving it.
  const Method mcweeny{
      [mu](const BlockSparseMatrix& /*hh*/, const linalg::SpectralBounds& b) {
        const double w = std::max({b.hi - mu, mu - b.lo, 1e-12});
        return Seed{-0.5 / w, 0.5 + 0.5 * mu / w};
      },
      true, [](const Traces& /*t*/) { return kMcWeeny; }};
  PurificationResult out = purify(h, std::nullopt, mcweeny, options, workspace);
  out.mu = mu;
  return out;
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

PurificationResult purify_with_chemical_potential(
    const BlockSparseMatrix& h, int n_occupied,
    const PurificationOptions& options, PurificationWorkspace* workspace) {
  PurificationResult empty;
  if (nothing_to_purify(h, n_occupied, empty)) return empty;

  // tr P(mu) counts the eigenvalues below mu, a step-wise nondecreasing
  // function of mu: plain bisection between the Gershgorin bounds brackets
  // the Fermi level.  Accept when the count lands within a quarter state —
  // tighter than any truncation noise, loose enough that gapped systems
  // terminate in a handful of purification runs.
  // One Gershgorin pass serves the whole bisection: both the mu bracket
  // and every grand-canonical run's seed below read the same enclosure.
  PurificationOptions opts = options;
  if (!opts.have_bounds) {
    opts.bounds = h.symmetric() ? h.gershgorin_bounds()
                                : h.to_symmetric_half().gershgorin_bounds();
    opts.have_bounds = true;
  }
  double lo = opts.bounds.lo;
  double hi = opts.bounds.hi;
  const double target = static_cast<double>(n_occupied);

  PurificationResult best;
  double best_miss = 1e300;
  for (int step = 0; step < 48; ++step) {
    const double mu = 0.5 * (lo + hi);
    PurificationResult r = purify_grand_canonical(h, mu, opts, workspace);
    const double count = r.density.trace();
    const double miss = std::fabs(count - target);
    if (miss < best_miss) {
      best_miss = miss;
      best = std::move(r);
    }
    if (best_miss <= 0.25 && best.converged) break;
    if (count < target) {
      lo = mu;
    } else {
      hi = mu;
    }
    if (hi - lo < 1e-12 * std::max(1.0, std::fabs(hi) + std::fabs(lo))) {
      break;
    }
  }
  // A count that never matched (mu trapped inside a band at T = 0) is a
  // metallic failure mode: report the closest run, unconverged, and marked
  // so the guardrails classify it as a mu miss rather than a plain stall.
  if (best_miss > 0.25) {
    best.converged = false;
    best.mu_miss = true;
  }
  return best;
}

}  // namespace tbmd::onx
