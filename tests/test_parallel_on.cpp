// Tests for the parallel O(N) engine: the domain partition helper,
// thread-count invariance of the sharded purification pipeline (energies
// and forces must be bit-identical at any OMP_NUM_THREADS, the contract the
// checkpoint/restart guarantees rest on), assembly of a permuted atom
// order, and the cached-spectral-bounds hoist.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/tb_model.hpp"
#include "src/util/parallel.hpp"
#include "src/util/partition.hpp"

namespace tbmd::onx {
namespace {

/// Restores the ambient OpenMP team size on scope exit, so the
/// thread-sweeping tests cannot leak a modified team into later tests.
struct ThreadGuard {
  int saved = par::max_threads();
  ~ThreadGuard() { par::set_num_threads(saved); }
};

System perturbed_diamond(int cells, double amplitude = 0.03,
                         std::uint64_t seed = 17) {
  System s = structures::diamond(Element::C, 3.567, cells, cells, cells);
  structures::perturb(s, amplitude, seed);
  return s;
}

// --- partition helper ----------------------------------------------------

TEST(Partition, EvenDomainsAreIdentityChunks) {
  // Contiguous, non-empty, balanced chunks of the unpermuted rows.
  EXPECT_EQ(par::even_domains(10, 3).domain_ptr,
            (std::vector<std::size_t>{0, 3, 6, 10}));
  EXPECT_EQ(par::even_domains(10, 0).domain_ptr,
            (std::vector<std::size_t>{0, 10}));
}

// --- thread-count invariance ---------------------------------------------

struct StepRecord {
  double cold_energy = 0.0;
  double warm_energy = 0.0;
  std::vector<Vec3> cold_forces;
  std::vector<Vec3> warm_forces;
  StepReport cold_report;
  StepReport warm_report;
};

/// One cold + one warm step of a fresh calculator on `s` at `threads`.
StepRecord run_steps(const System& s, int threads,
                     const CalculatorSpec& opt) {
  par::set_num_threads(threads);
  const tb::TbModel m = tb::xwch_carbon();
  OrderNCalculator calc(m, opt);
  StepRecord rec;
  const ForceResult cold = calc.compute(s);
  rec.cold_energy = cold.energy;
  rec.cold_forces = cold.forces;
  rec.cold_report = calc.step_report();
  const ForceResult warm = calc.compute(s);
  rec.warm_energy = warm.energy;
  rec.warm_forces = warm.forces;
  rec.warm_report = calc.step_report();
  EXPECT_TRUE(calc.last_purification().converged);
  return rec;
}

/// The work counts of a step depend neither on the thread count nor on
/// sharding (wall times, the domain count itself and the per-thread
/// scratch in workspace_bytes do).
void expect_same_work(const StepReport& a, const StepReport& b,
                      const std::string& label) {
  EXPECT_EQ(a.neighbor_rebuilt, b.neighbor_rebuilt) << label;
  EXPECT_EQ(a.eigenpairs, b.eigenpairs) << label;
  EXPECT_EQ(a.symbolic_builds, b.symbolic_builds) << label;
  EXPECT_EQ(a.numeric_reuses, b.numeric_reuses) << label;
  EXPECT_EQ(a.topology, b.topology) << label;
  EXPECT_EQ(a.bounds_refreshed, b.bounds_refreshed) << label;
  EXPECT_EQ(a.spectral_bounds.lo, b.spectral_bounds.lo) << label;
  EXPECT_EQ(a.spectral_bounds.hi, b.spectral_bounds.hi) << label;
}

void expect_records_bit_identical(const StepRecord& a, const StepRecord& b,
                                  const std::string& label) {
  expect_same_work(a.cold_report, b.cold_report, label + " cold");
  expect_same_work(a.warm_report, b.warm_report, label + " warm");
  EXPECT_EQ(a.cold_energy, b.cold_energy) << label;
  EXPECT_EQ(a.warm_energy, b.warm_energy) << label;
  ASSERT_EQ(a.cold_forces.size(), b.cold_forces.size());
  for (std::size_t i = 0; i < a.cold_forces.size(); ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(a.cold_forces[i][c], b.cold_forces[i][c])
          << label << " cold atom " << i << " component " << c;
      EXPECT_EQ(a.warm_forces[i][c], b.warm_forces[i][c])
          << label << " warm atom " << i << " component " << c;
    }
  }
}

TEST(ParallelOn, StepsAreBitIdenticalAcrossThreadCounts) {
  // The hard invariant behind every checkpoint guarantee: the same binary
  // must produce the same bits at OMP_NUM_THREADS = 1, 2, 4 (even
  // oversubscribed on fewer cores).  Exercised on the default scheduling
  // path; EXPECT_EQ on doubles is exact equality.
  const ThreadGuard guard;
  const System s = perturbed_diamond(3);  // 216 atoms
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  const StepRecord ref = run_steps(s, 1, opt);
  for (const int threads : {2, 4}) {
    const StepRecord rec = run_steps(s, threads, opt);
    expect_records_bit_identical(ref, rec,
                                 "threads=" + std::to_string(threads));
  }
}

TEST(ParallelOn, ShardedStepsAreBitIdenticalAcrossThreadCounts) {
  // Same invariant with the domain-sharded sweeps engaged (explicit
  // domains = 4): sharding is a scheduling-level change, so the domain
  // count must not leak into the numbers either.
  const ThreadGuard guard;
  const System s = perturbed_diamond(3);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  opt.domains = 4;
  const StepRecord ref = run_steps(s, 1, opt);
  for (const int threads : {2, 4}) {
    const StepRecord rec = run_steps(s, threads, opt);
    expect_records_bit_identical(
        ref, rec, "sharded threads=" + std::to_string(threads));
  }
}

TEST(ParallelOn, ShardedMatchesUnshardedBitwise) {
  const ThreadGuard guard;
  par::set_num_threads(2);
  const System s = perturbed_diamond(3);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  opt.domains = 1;
  const StepRecord plain = run_steps(s, 2, opt);
  opt.domains = 4;
  const StepRecord sharded = run_steps(s, 2, opt);
  expect_records_bit_identical(plain, sharded, "domains=4 vs domains=1");

  // And the calculator actually reports the sharded decomposition.
  const tb::TbModel m = tb::xwch_carbon();
  OrderNCalculator calc(m, opt);
  (void)calc.compute(s);
  EXPECT_EQ(calc.step_report().domains, 4u);
}

// --- permuted atom order -------------------------------------------------

TEST(ParallelOn, PermutedAssemblyStoresTransposedTiles) {
  // Reversing the atom order flips every stored bond (i < j becomes
  // p(j) < p(i)), so the permuted Hamiltonian must hold the transpose of
  // each original tile: the Slater-Koster block of -d is B(d)^T.  Bonds
  // through a periodic image associate the image shift differently in the
  // reversed frame and the radial scaling amplifies that last-ulp length
  // difference, so the comparison is a tight absolute tolerance (~1e-12
  // on O(1-10) eV entries), nine orders below the force-accuracy budget.
  const tb::TbModel m = tb::xwch_carbon();
  const System s = perturbed_diamond(2, 0.04, 91);  // 64 atoms
  const std::size_t n = s.size();
  System rev(s.cell());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t src = n - 1 - k;
    rev.add_atom(s.species()[src], s.positions()[src]);
  }

  const auto block_h = [&](const System& sys) {
    NeighborList list;
    list.build(sys.positions(), sys.cell(), {m.cutoff(), 0.5});
    tb::BondTable table;
    table.build(m, sys, list, tb::BondTable::Mode::kBlocks);
    return build_block_hamiltonian(m, sys, table);
  };
  const BlockSparseMatrix h = block_h(s);
  const BlockSparseMatrix hr = block_h(rev);
  ASSERT_EQ(h.block_count(), hr.block_count());

  const auto perm = [n](std::size_t i) { return n - 1 - i; };
  for (std::size_t bi = 0; bi < n; ++bi) {
    const std::size_t bs = h.row_dim(bi);
    for (std::size_t k = h.row_ptr()[bi]; k < h.row_ptr()[bi + 1]; ++k) {
      const std::size_t bj = h.cols()[k];
      const double* tile = h.block(k);
      if (bi == bj) {
        const double* mirror = hr.find_block(perm(bi), perm(bi));
        ASSERT_NE(mirror, nullptr);
        for (std::size_t e = 0; e < bs * bs; ++e) {
          EXPECT_NEAR(tile[e], mirror[e], 1e-12) << "diag tile " << bi;
        }
        continue;
      }
      // Off-diagonal (bi, bj) with bi < bj: reversal flips the ordering
      // (perm(bj) < perm(bi)), so the reversed system stores this bond
      // seen from the other end -- the exact transpose of the tile.
      const double* mirror = hr.find_block(perm(bj), perm(bi));
      ASSERT_NE(mirror, nullptr) << "tile (" << bi << "," << bj << ")";
      for (std::size_t r = 0; r < bs; ++r) {
        for (std::size_t c = 0; c < bs; ++c) {
          EXPECT_NEAR(tile[r * bs + c], mirror[c * bs + r], 1e-12)
              << "tile (" << bi << "," << bj << ") entry " << r << "," << c;
        }
      }
    }
  }
}

// --- cached spectral bounds ----------------------------------------------

TEST(ParallelOn, CachedBoundsRefreshOnceAcrossWarmSteps) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = perturbed_diamond(2, 0.03, 29);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-7);
  opt.cache_spectral_bounds = true;
  OrderNCalculator calc(m, opt);

  (void)calc.compute(s);
  EXPECT_EQ(calc.step_report().bounds_refreshed, 1u);

  // Warm steps with small position drift ride the widened enclosure
  // instead of re-running Gershgorin.
  for (int step = 0; step < 3; ++step) {
    for (Vec3& r : s.positions()) r.x += 1e-4;
    const ForceResult fr = calc.compute(s);
    EXPECT_TRUE(calc.last_purification().converged);
    EXPECT_EQ(calc.step_report().bounds_refreshed, 0u) << "step " << step;
    (void)fr;
  }

  // The widened interval must still enclose the exact Gershgorin bounds
  // of the current Hamiltonian (the rigor condition: no eigenvalue moves
  // farther than ||dH||_F).
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.5});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const linalg::SpectralBounds exact =
      build_block_hamiltonian(m, s, table).gershgorin_bounds();
  const linalg::SpectralBounds& used = calc.step_report().spectral_bounds;
  EXPECT_LE(used.lo, exact.lo);
  EXPECT_GE(used.hi, exact.hi);

  // And the accuracy is unaffected: a no-cache calculator on the same
  // positions agrees to well below the force-accuracy budget.
  CalculatorSpec base = opt;
  base.cache_spectral_bounds = false;
  OrderNCalculator ref(m, base);
  const ForceResult want = ref.compute(s);
  const ForceResult got = calc.compute(s);
  EXPECT_NEAR(want.energy, got.energy, 1e-7 * static_cast<double>(s.size()));
  double worst = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    worst = std::max(worst, norm(want.forces[i] - got.forces[i]));
  }
  EXPECT_LT(worst, 1e-5);
}

TEST(ParallelOn, CachedBoundsRefreshOnTopologyChange) {
  const tb::TbModel m = tb::xwch_carbon();
  System s = perturbed_diamond(2, 0.0, 1);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  opt.cache_spectral_bounds = true;
  OrderNCalculator calc(m, opt);
  (void)calc.compute(s);
  EXPECT_EQ(calc.step_report().bounds_refreshed, 1u);
  (void)calc.compute(s);
  EXPECT_EQ(calc.step_report().bounds_refreshed, 0u);

  s.positions()[3] += Vec3{0.9, 0.7, 0.5};  // crosses the cutoff shell
  (void)calc.compute(s);
  EXPECT_EQ(calc.step_report().bounds_refreshed, 1u);
}

// --- mixed precision ------------------------------------------------------

TEST(ParallelOn, MixedPrecisionTracksFp64WithinForceBudget) {
  // The mixed loop runs the loose-early iterations on fp32 tiles and
  // promotes to fp64 for the tight-late ones: at tol 1e-6 on the 216-atom
  // slice the drift against the pure-fp64 engine must stay far inside the
  // 1.5e-3 eV/A force budget the MD accuracy gates are written against.
  const ThreadGuard guard;
  const System s = perturbed_diamond(3);  // 216 atoms
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  const StepRecord ref = run_steps(s, 2, opt);
  opt.numerics.precision = PrecisionMode::kMixed;
  const StepRecord mix = run_steps(s, 2, opt);

  const double n = static_cast<double>(s.size());
  EXPECT_LT(std::fabs(mix.cold_energy - ref.cold_energy) / n, 1e-5);
  EXPECT_LT(std::fabs(mix.warm_energy - ref.warm_energy) / n, 1e-5);
  ASSERT_EQ(mix.cold_forces.size(), ref.cold_forces.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.cold_forces.size(); ++i) {
    for (int c = 0; c < 3; ++c) {
      worst = std::max(
          worst, std::fabs(mix.cold_forces[i][c] - ref.cold_forces[i][c]));
      worst = std::max(
          worst, std::fabs(mix.warm_forces[i][c] - ref.warm_forces[i][c]));
    }
  }
  EXPECT_LT(worst, 1.5e-3);

  // The calculator accounts for the precision split: a healthy mixed run
  // spends iterations on both sides of the promotion.
  const tb::TbModel m = tb::xwch_carbon();
  OrderNCalculator calc(m, opt);
  (void)calc.compute(s);
  const NumericsStats& st = calc.last_purification().numerics;
  EXPECT_GT(st.fp32_iterations, 0);
  EXPECT_GT(st.fp64_iterations, 0);
  EXPECT_NE(st.trigger, PromotionTrigger::kNone);
  EXPECT_EQ(st.promoted_at, st.fp32_iterations);

  // ... and the pure-fp64 engine reports an all-fp64 split.
  CalculatorSpec pure = CalculatorSpec::order_n(1e-6);
  OrderNCalculator calc64(m, pure);
  (void)calc64.compute(s);
  const NumericsStats& st64 = calc64.last_purification().numerics;
  EXPECT_EQ(st64.fp32_iterations, 0);
  EXPECT_GT(st64.fp64_iterations, 0);
  EXPECT_EQ(st64.trigger, PromotionTrigger::kNone);
}

TEST(ParallelOn, MixedPrecisionStepsAreBitIdenticalAcrossThreadCounts) {
  // The fp32 sweeps are the fp64 ones instantiated on float tiles (the
  // same per-row serial accumulation), so the thread-count invariance
  // contract extends to the mixed loop unchanged.
  const ThreadGuard guard;
  const System s = perturbed_diamond(3);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  opt.numerics.precision = PrecisionMode::kMixed;
  const StepRecord ref = run_steps(s, 1, opt);
  for (const int threads : {2, 4}) {
    const StepRecord rec = run_steps(s, threads, opt);
    expect_records_bit_identical(ref, rec,
                                 "mixed threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace tbmd::onx
