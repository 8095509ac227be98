#include "src/onx/on_calculator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/io/logger.hpp"
#include "src/linalg/eigen_partial.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/repulsive.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "src/util/partition.hpp"

namespace tbmd::onx {

void build_block_hamiltonian(const tb::TbModel& model, const System& system,
                             const tb::BondTable& table,
                             BlockSparseMatrix& out, BsrWorkspace& ws) {
  TBMD_REQUIRE(table.atoms() == system.size(),
               "build_block_hamiltonian: bond table size mismatch");
  TBMD_REQUIRE(table.has_blocks(),
               "build_block_hamiltonian: bond table was built without blocks");
  const std::size_t n = system.size();
  if (ws.row_cols.size() < n) ws.row_cols.resize(n);
  if (ws.row_vals.size() < n) ws.row_vals.resize(n);

  // Symmetric-half assembly: the diagonal onsite tile plus one
  // orbs(i) x orbs(j) tile per atom pair within hopping range with
  // neighbor > i.  Half pairs are stored with i < j, so every kept
  // adjacency entry reads its hopping block untransposed, and the onsite
  // tile (column i) leads each sorted block row.  A non-empty ws.domains
  // chunk list shards the sweep domain-by-domain (same rows, same
  // per-row work -> bit-identical output) so first-touch of the staging
  // rows matches the SpMM's stable thread -> domain ownership.
  const std::vector<std::size_t>& dom = ws.domains;
  const bool sharded = dom.size() > 2 && dom.front() == 0 && dom.back() == n;
#pragma omp parallel
  {
    const auto assemble_row = [&](std::size_t i) {
      const auto bsi = static_cast<std::size_t>(table.atom_orbitals(i));
      const auto si =
          static_cast<std::size_t>(model.species_index(system.species()[i]));
      auto& cols = ws.row_cols[i];
      auto& vals = ws.row_vals[i];
      cols.clear();
      vals.clear();
      cols.push_back(static_cast<std::uint32_t>(i));
      vals.resize(bsi * bsi, 0.0);
      for (std::size_t a = 0; a < bsi; ++a) {
        vals[(bsi + 1) * a] = model.onsite_energy(si, static_cast<int>(a));
      }
      for (const tb::BondTable::AtomBond* ab = table.atom_begin(i);
           ab != table.atom_end(i); ++ab) {
        if (ab->neighbor < i || table.hopping_zero(ab->bond)) continue;
        const double* b = table.block(ab->bond);
        const auto bsj =
            static_cast<std::size_t>(table.atom_orbitals(ab->neighbor));
        cols.push_back(ab->neighbor);
        const std::size_t at = vals.size();
        vals.resize(at + bsi * bsj);
        double* tile = vals.data() + at;
        if (ab->transposed != 0) {
          // Stored block is orbs(neighbor) x orbs(i) row-major (stride bsi).
          for (std::size_t a = 0; a < bsi; ++a) {
            for (std::size_t c = 0; c < bsj; ++c) {
              tile[bsj * a + c] = b[bsi * c + a];
            }
          }
        } else {
          std::copy(b, b + bsi * bsj, tile);
        }
      }
    };
    if (sharded) {
#pragma omp for schedule(static, 1)
      for (std::size_t d = 0; d < dom.size() - 1; ++d) {
        for (std::size_t i = dom[d]; i < dom[d + 1]; ++i) assemble_row(i);
      }
    } else {
#pragma omp for schedule(dynamic, 16)
      for (std::size_t i = 0; i < n; ++i) assemble_row(i);
    }
  }
  bsr_assemble(tb::orbital_block_dims(model, system), ws, out);
}

BlockSparseMatrix build_block_hamiltonian(const tb::TbModel& model,
                                          const System& system,
                                          const tb::BondTable& table) {
  BlockSparseMatrix out;
  BsrWorkspace ws;
  build_block_hamiltonian(model, system, table, out, ws);
  return out;
}

std::vector<Vec3> band_forces_sparse(const tb::BondTable& table,
                                     const BlockSparseMatrix& p,
                                     Mat3* virial) {
  TBMD_REQUIRE(table.has_derivatives(),
               "band_forces_sparse: bond table was built without derivatives");
  // One block row per atom (true for every per-atom layout, including
  // all-equal dims that normalized to uniform storage).
  TBMD_REQUIRE(p.size() == table.orbital_count() &&
                   p.block_rows() == table.atoms(),
               "band_forces_sparse: density matrix layout does not match "
               "the bond table's orbital blocks");
  const std::size_t n = table.atoms();
  std::vector<Vec3> forces(n, Vec3{});
  if (table.size() == 0) return forces;

  // Two-pass contraction, bit-identical at any OMP_NUM_THREADS and across
  // checkpoint kill-and-resume: pass 1 computes each bond's dE/dd exactly
  // once (owned by its i endpoint in the neighbor-sorted adjacency) into a
  // per-bond slot plus a per-atom virial partial -- every slot has exactly
  // one writer -- and pass 2 gathers each atom's force over its full
  // adjacency in sorted neighbor order.  No summation order depends on the
  // thread partition.
  std::vector<Vec3> dedd_bond(table.size(), Vec3{});
  std::vector<Mat3> watom(virial != nullptr ? n : 0, Mat3{});

#pragma omp parallel for schedule(static)
  for (std::size_t atom = 0; atom < n; ++atom) {
    Mat3 w{};
    for (const tb::BondTable::AtomBond* nb = table.atom_begin(atom);
         nb != table.atom_end(atom); ++nb) {
      if (nb->transposed != 0) continue;  // compute each bond once
      const std::size_t q = nb->bond;
      if (table.hopping_zero(q)) continue;

      // One tile fetch covers all orbital pairs of the bond.  Half pairs
      // satisfy i < j, so the fetch is always an upper-triangle tile: the
      // contraction reads the symmetric-half density matrix directly and
      // never needs a full-pattern (mirror-expanded) copy.
      const double* tile = p.find_block(table.i(q), table.j(q));
      if (tile == nullptr) continue;
      const std::size_t sz = static_cast<std::size_t>(table.orbs_i(q)) *
                             static_cast<std::size_t>(table.orbs_j(q));
      double rho[81];
      for (std::size_t ab = 0; ab < sz; ++ab) {
        rho[ab] = 2.0 * tile[ab];  // spin factor
      }
      const double* d = table.derivative(q, 0);
      Vec3 dedd{};
      for (std::size_t ab = 0; ab < sz; ++ab) {
        const double rho_ab = rho[ab];
        if (rho_ab == 0.0) continue;
        dedd.x += 2.0 * rho_ab * d[ab];
        dedd.y += 2.0 * rho_ab * d[sz + ab];
        dedd.z += 2.0 * rho_ab * d[2 * sz + ab];
      }
      dedd_bond[q] = dedd;
      if (virial != nullptr) w -= outer(table.bond(q), dedd);
    }
    if (virial != nullptr) watom[atom] = w;
  }

  tb::gather_bond_forces(table, dedd_bond, watom, forces, virial);
  return forces;
}

OrderNCalculator::OrderNCalculator(tb::TbModel model, CalculatorSpec spec)
    : model_(std::move(model)), spec_(std::move(spec)) {
  TBMD_REQUIRE(spec_.mode == CalcMode::kOrderN,
               "OrderNCalculator: spec.mode is '" + spec_.mode_name() +
                   "'; the exact engine is tb::TightBindingCalculator");
  TBMD_REQUIRE(spec_.electronic_temperature == 0.0,
               "OrderNCalculator: the O(N) engine integrates at T_el = 0; "
               "use mode = exact for Fermi-Dirac smearing");
}

linalg::SpectralBounds OrderNCalculator::step_spectral_bounds() {
  const std::uint64_t stamp = table_.topology_version();
  const std::uint64_t fp = hamiltonian_.pattern_fingerprint();
  const std::vector<double>& vals = hamiltonian_.values();
  bool refresh = !bounds_valid_ || bounds_topology_ != stamp ||
                 bounds_fingerprint_ != fp || h_ref_.size() != vals.size();
  double drift = 0.0;
  if (!refresh) {
    // Frobenius norm of dH since the last exact refresh: no eigenvalue can
    // have moved further than ||dH||_2 <= ||dH||_F, so widening the cached
    // enclosure by the drift stays rigorous.  Fixed 256-way chunking with
    // a serial sum in chunk order keeps the norm (and hence the seed)
    // bit-identical at any thread count.
    const std::size_t m = vals.size();
    constexpr std::size_t kChunks = 256;
    double partial[kChunks];
#pragma omp parallel for schedule(static)
    for (std::size_t c = 0; c < kChunks; ++c) {
      const std::size_t b0 = (m * c) / kChunks;
      const std::size_t b1 = (m * (c + 1)) / kChunks;
      double s = 0.0;
      for (std::size_t q = b0; q < b1; ++q) {
        const double d = vals[q] - h_ref_[q];
        s += d * d;
      }
      partial[c] = s;
    }
    double s2 = 0.0;
    for (std::size_t c = 0; c < kChunks; ++c) s2 += partial[c];
    drift = std::sqrt(s2);
    // Re-anchor once the drift-widened interval is materially looser than
    // the exact one (an over-wide enclosure only flattens the purification
    // seed, costing iterations, never correctness).
    if (drift > 0.125 * std::max(cached_bounds_.width(), 1e-12)) {
      refresh = true;
    }
  }
  if (refresh) {
    cached_bounds_ = hamiltonian_.gershgorin_bounds();
    h_ref_ = vals;
    bounds_topology_ = stamp;
    bounds_fingerprint_ = fp;
    bounds_valid_ = true;
    ++report_.bounds_refreshed;
    return cached_bounds_;
  }
  return {cached_bounds_.lo - drift, cached_bounds_.hi + drift};
}

ForceResult OrderNCalculator::compute(const System& system) {
  report_ = StepReport{};
  ForceResult result;
  const std::size_t n = system.size();
  if (n == 0) return result;

  const int electrons = system.total_valence_electrons();
  TBMD_REQUIRE(electrons % 2 == 0,
               "OrderNCalculator: odd electron counts are not supported");

  // Effective block-row domain count: auto mode shards only when a real
  // thread team exists and the system is big enough for ~4 domains per
  // thread to stay coarse; 1 thread or an explicit `domains = 1` keeps
  // the engine on the exact pre-sharding code path.
  std::size_t ndom = 1;
  if (spec_.domains == 0) {
    const auto nthreads = static_cast<std::size_t>(par::max_threads());
    if (nthreads > 1 && n >= 512) ndom = std::min(4 * nthreads, n / 64);
  } else if (spec_.domains > 1) {
    ndom = std::min(static_cast<std::size_t>(spec_.domains), n);
  }
  report_.domains = ndom;
  const BsrWorkspace::SpmmStats stats_before = workspace_.scratch.stats;

  {
    PhaseTimer t(report_, Phase::kNeighbors);
    report_.neighbor_rebuilt = list_.ensure(system.positions(), system.cell(),
                                            {model_.cutoff(), spec_.skin});
  }

  // Shared per-step bond table: the sparse assembly, the sparse force
  // contraction and the repulsive term below read the same blocks, so the
  // O(N) path no longer re-derives any Slater-Koster quantity.
  {
    PhaseTimer t(report_, Phase::kBondTable);
    table_.build(model_, system, list_,
                 tb::BondTable::Mode::kBlocksAndDerivatives,
                 spec_.bond_reuse_skin);
  }
  report_.topology = table_.topology_version();

  // The pattern cache is keyed on the topology stamp, which an atom-count
  // change always bumps.
  workspace_.patterns.set_topology(report_.topology);
  if (!spec_.reuse_patterns) workspace_.patterns.invalidate();

  // Publish the domain cuts (contiguous equal-count chunks of the block
  // rows) to the shared BSR scratch: the H assembly and every
  // purification SpMM then sweep domain-by-domain with stable thread
  // ownership (scheduling only -- outputs are unchanged).
  if (ndom > 1) {
    workspace_.scratch.domains = par::even_domains(n, ndom).domain_ptr;
  } else {
    workspace_.scratch.domains.clear();
  }

  {
    PhaseTimer t(report_, Phase::kHamiltonian);
    build_block_hamiltonian(model_, system, table_, hamiltonian_,
                            workspace_.scratch);
  }

  // Repulsive term first: it is a pure function of the bond table (no
  // density involved), so the guarded attempt loop below never needs to
  // recompute it, and the total-force/energy sanity bounds can see it.
  tb::RepulsiveResult rep;
  {
    PhaseTimer t(report_, Phase::kRepulsive);
    rep = tb::repulsive_energy_forces(model_, table_);
  }

  const HealthSpec& health = spec_.health;
  PurificationOptions popts;
  static_cast<NumericsSpec&>(popts) = spec_.numerics;
  if (spec_.cache_spectral_bounds) {
    popts.bounds = step_spectral_bounds();
    popts.have_bounds = true;
    report_.spectral_bounds = popts.bounds;
  }

  // Guarded step: purify + contract band forces, classify the outcome,
  // and walk the recovery ladder on a failure (health on) -- see
  // core/health_spec.hpp for the rung order.  With health off this loop
  // body runs exactly once with the caller's options: the single-attempt
  // path is bit-identical to the unguarded engine (the scans below only
  // read results, and the satellite non-convergence check costs one flag).
  int rung = 0;  // 0 = primary attempt, then ladder rungs a/b/c
  for (;;) {
    result.virial = Mat3{};
    {
      PhaseTimer t(report_, Phase::kPurification);
      if (rung < 3) {
        // Recycle the previous density storage (the largest buffer of the
        // whole O(N) step) into the workspace before it is overwritten:
        // the first combine_into reuses its capacity instead of regrowing
        // ws.p from scratch.
        workspace_.p = std::move(last_.density);
        last_ = palser_manolopoulos(hamiltonian_, electrons / 2, popts,
                                    &workspace_);
      } else {
        last_ = exact_step_density(system, electrons / 2);
      }
    }
    {
      PhaseTimer t(report_, Phase::kForces);
      result.forces = band_forces_sparse(table_, last_.density, &result.virial);
    }

    if (!health.enabled) {
      if (!last_.converged) {
        // Satellite guardrail-off path: an unconverged density is still
        // used (historical behavior) but never silently -- it is counted
        // and logged so long sweeps can audit how often it happened.
        ++recovery_stats_.unconverged_steps;
        recovery_stats_.last_failure = FailureClass::kNonConvergence;
        io::log_warn("OrderNCalculator: purification did not converge (",
                     last_.iterations, " iterations, idempotency error ",
                     last_.idempotency_error,
                     "); using the unconverged density (health checks off)");
      }
      break;
    }

    // --- classify this attempt -----------------------------------------
    FailureClass fail = FailureClass::kNone;
    if (!std::isfinite(last_.band_energy) || !std::isfinite(rep.energy)) {
      fail = FailureClass::kNonFinite;
    }
    if (fail == FailureClass::kNone) {
      for (const double v : last_.density.values()) {
        if (!std::isfinite(v)) {
          fail = FailureClass::kNonFinite;
          break;
        }
      }
    }
    if (fail == FailureClass::kNone && !last_.converged) {
      fail = FailureClass::kNonConvergence;
    }
    if (fail == FailureClass::kNone) {
      // Bounds on the *total* per-atom forces and energy (band +
      // repulsive).
      const double e_per_atom =
          std::fabs(last_.band_energy + rep.energy) / static_cast<double>(n);
      if (health.max_energy_per_atom > 0.0 &&
          e_per_atom > health.max_energy_per_atom) {
        fail = FailureClass::kEnergyBound;
      }
      for (std::size_t i = 0; fail == FailureClass::kNone && i < n; ++i) {
        const Vec3 f = result.forces[i] + rep.forces[i];
        if (!std::isfinite(f.x) || !std::isfinite(f.y) ||
            !std::isfinite(f.z)) {
          fail = FailureClass::kNonFinite;
        } else if (health.max_force > 0.0 &&
                   (std::fabs(f.x) > health.max_force ||
                    std::fabs(f.y) > health.max_force ||
                    std::fabs(f.z) > health.max_force)) {
          fail = FailureClass::kForceBound;
        }
      }
    }
    if (fail == FailureClass::kNone) break;

    // --- escalate to the next applicable rung ---------------------------
    recovery_stats_.last_failure = fail;
    bool advanced = false;
    while (!advanced && rung < 3) {
      ++rung;
      if (rung == 1 && health.fp64_retry &&
          popts.precision == PrecisionMode::kMixed) {
        popts.precision = PrecisionMode::kF64;
        ++recovery_stats_.fp64_retries;
        advanced = true;
      } else if (rung == 2 && health.tighten_retry) {
        popts.drop_tolerance *= health.tighten_factor;
        popts.schedule_loosening = 1.0;
        // Cold cache rebuild: a corrupted or stalled run may have been fed
        // by a stale symbolic pattern or a drift-widened spectral seed.
        workspace_.patterns.invalidate();
        bounds_valid_ = false;
        if (spec_.cache_spectral_bounds) {
          popts.bounds = step_spectral_bounds();
          report_.spectral_bounds = popts.bounds;
        }
        ++recovery_stats_.tighten_retries;
        advanced = true;
      } else if (rung == 3 && health.exact_fallback) {
        ++recovery_stats_.exact_fallbacks;
        advanced = true;
      }
    }
    if (!advanced) {
      ++recovery_stats_.failures;
      std::ostringstream os;
      os.precision(17);
      os << "OrderNCalculator: step failed ["
         << failure_class_name(fail) << "] after "
         << (recovery_stats_.fp64_retries + recovery_stats_.tighten_retries +
             recovery_stats_.exact_fallbacks)
         << " cumulative recovery attempts; purification: iterations="
         << last_.iterations << " converged=" << last_.converged
         << " idempotency_error=" << last_.idempotency_error
         << " band_energy=" << last_.band_energy
         << " fill=" << last_.fill_fraction;
      throw NumericsError(fail, os.str());
    }
    io::log_warn("OrderNCalculator: step failed [", failure_class_name(fail),
                 "]; retrying on recovery rung ", rung,
                 rung == 1 ? " (fp64-only)"
                 : rung == 2
                     ? " (tightened tolerance + cold cache rebuild)"
                     : " (exact-diagonalization fallback)");
  }

  for (std::size_t i = 0; i < n; ++i) result.forces[i] += rep.forces[i];
  result.virial += rep.virial;
  result.band_energy = last_.band_energy;
  result.repulsive_energy = rep.energy;
  result.energy = last_.band_energy + rep.energy;

  report_.symbolic_builds =
      workspace_.scratch.stats.symbolic_builds - stats_before.symbolic_builds;
  report_.numeric_reuses =
      workspace_.scratch.stats.numeric_reuses - stats_before.numeric_reuses;
  report_.workspace_bytes = workspace_.scratch.footprint_bytes();
  return result;
}

PurificationResult OrderNCalculator::exact_step_density(const System& system,
                                                        int n_occupied) const {
  // O(N^3) for one step: densify the already-assembled blocked H and
  // solve for the lowest n_occupied states only (T = 0 aufbau, the same
  // filling the canonical purification targets).  The density goes back
  // onto the blocked substrate (upper block triangle) with no truncation
  // so the existing sparse force contraction serves this rung unchanged.
  const linalg::Matrix hd = hamiltonian_.to_dense();
  linalg::Matrix p(hd.rows(), hd.cols(), 0.0);
  double band = 0.0;
  if (n_occupied > 0) {
    const linalg::SymmetricEigenSolution eig = linalg::eigh_range(
        hd, 0, static_cast<std::size_t>(n_occupied) - 1);
    for (const double e : eig.values) band += e;
    // Spinless P; the spin factor sits in 2 tr(PH).
    p = tb::density_matrix(eig.vectors,
                           std::vector<double>(eig.values.size(), 1.0));
  }

  PurificationResult out;
  out.density = BlockSparseMatrix::from_dense(
      p, tb::orbital_block_dims(model_, system), 0.0);
  out.band_energy = 2.0 * band;
  out.converged = true;
  out.iterations = 0;
  out.idempotency_error = 0.0;
  out.fill_fraction = out.density.fill_fraction();
  return out;
}

}  // namespace tbmd::onx
