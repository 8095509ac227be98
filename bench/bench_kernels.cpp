/// \file bench_kernels.cpp
/// \brief EXP-B1 -- google-benchmark microbenchmarks of the hot kernels:
/// eigensolver (on random matrices and on the nanotube H of the paper's
/// workload), Householder reduction, GEMM, Hamiltonian assembly,
/// neighbor-list build, bond-table build, Hellmann-Feynman forces,
/// density matrix, Tersoff step, blocked-sparse multiply, Slater-Koster block
/// evaluation.

#include <benchmark/benchmark.h>

#include <cmath>

#include "src/linalg/blas.hpp"
#include "src/linalg/blocked_tridiag.hpp"
#include "src/linalg/eigen_partial.hpp"
#include "src/linalg/eigen_sym.hpp"
#include "src/neighbor/neighbor_list.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/potentials/tersoff.hpp"
#include "src/structures/builders.hpp"
#include "src/structures/nanotube.hpp"
#include "src/tb/bond_table.hpp"
#include "src/tb/density_matrix.hpp"
#include "src/tb/forces.hpp"
#include "src/tb/hamiltonian.hpp"
#include "src/tb/occupations.hpp"
#include "src/tb/slater_koster.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/util/random.hpp"

namespace {

using namespace tbmd;

/// Cubic diamond supercell with the requested atom count (8 atoms per
/// conventional cell, so `atoms` must be 8 * nx^3: 64, 216, 512, ...).
System diamond_with_atoms(Element e, double a, std::int64_t atoms) {
  const int nx = static_cast<int>(std::lround(std::cbrt(atoms / 8.0)));
  return structures::diamond(e, a, nx, nx, nx);
}

linalg::Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1, 1);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

void BM_Eigh(benchmark::State& state) {
  const auto a = random_symmetric(state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigh(a));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Eigh)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNCubed);

void BM_EighPartial(benchmark::State& state) {
  // The TBMD hot-path query: the occupied half of the spectrum (Ne/2 of N
  // states at half filling) plus the LUMO, eigenvectors included.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 1);
  const std::size_t iu = n / 2;  // states 0 .. N/2 (occupied + LUMO)
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigh_range(a, 0, iu));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EighPartial)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNCubed);

void BM_EighPartialWindow(benchmark::State& state) {
  // Narrow interior window (band-edge style query): 16 states around the
  // middle of the spectrum.  The values stage still takes the whole
  // spectrum from the QL; only the vectors stage shrinks to 16 columns.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_symmetric(n, 1);
  const std::size_t il = n / 2 - 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigh_range(a, il, il + 15));
  }
}
BENCHMARK(BM_EighPartialWindow)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_EighPartialTube(benchmark::State& state) {
  // The operand the paper's workload diagonalizes: the first H of the
  // cnt_exact_md trajectory ((8,0) C tube, 6 cells, open; 768 orbitals)
  // and the window TightBindingCalculator requests, states 0 .. 384
  // (occupied + LUMO).
  const System tube = structures::nanotube(Element::C, 8, 0, 1.42, 6,
                                           /*periodic=*/false);
  const tb::TbModel m = tb::xwch_carbon();
  NeighborList list;
  list.build(tube.positions(), tube.cell(), {m.cutoff(), 0.5});
  const linalg::Matrix h = tb::build_hamiltonian(m, tube, list);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigh_range(h, 0, 384));
  }
}
BENCHMARK(BM_EighPartialTube)->Unit(benchmark::kMillisecond);

void BM_BlockedTridiag(benchmark::State& state) {
  const auto a = random_symmetric(state.range(0), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::blocked_tridiagonalize(a));
  }
}
BENCHMARK(BM_BlockedTridiag)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_Eigvalsh(benchmark::State& state) {
  const auto a = random_symmetric(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigvalsh(a));
  }
}
BENCHMARK(BM_Eigvalsh)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_Gemm(benchmark::State& state) {
  const auto a = random_symmetric(state.range(0), 3);
  const auto b = random_symmetric(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul(a, b));
  }
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BuildHamiltonian(benchmark::State& state) {
  // Dense assembly from the prebuilt bond table (the step-pipeline cost;
  // the shared block evaluation itself is measured by BM_BondTable).
  const int nx = state.range(0);
  System s = structures::diamond(Element::C, 3.567, nx, nx, nx);
  const tb::TbModel m = tb::xwch_carbon();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb::build_hamiltonian(m, s, table));
  }
  state.counters["atoms"] = static_cast<double>(s.size());
}
BENCHMARK(BM_BuildHamiltonian)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_NeighborBuild(benchmark::State& state) {
  System s = structures::random_gas(Element::Ar, state.range(0), 0.02, 1.5, 5);
  NeighborList list;
  for (auto _ : state) {
    list.build(s.positions(), s.cell(), {3.0, 0.3});
    benchmark::DoNotOptimize(list.half_pairs().size());
  }
}
BENCHMARK(BM_NeighborBuild)->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_BondTable(benchmark::State& state) {
  // The batched per-step evaluation pass: every half pair's SK block,
  // derivative and repulsive radial in one sweep.  Arg = atom count.
  System s = diamond_with_atoms(Element::C, 3.567, state.range(0));
  structures::perturb(s, 0.02, 7);
  const tb::TbModel m = tb::xwch_carbon();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  for (auto _ : state) {
    table.build(m, s, list, tb::BondTable::Mode::kBlocksAndDerivatives);
    benchmark::DoNotOptimize(table.derivative(table.size() - 1, 2)[15]);
  }
  state.counters["bonds"] = static_cast<double>(table.size());
}
BENCHMARK(BM_BondTable)->Arg(64)->Arg(216)->Unit(benchmark::kMillisecond);

void BM_BandForces(benchmark::State& state) {
  // Hellmann-Feynman contraction from the prebuilt bond table (the
  // per-step hot path: the table itself is shared with the Hamiltonian
  // assembly and the repulsive term, and is benchmarked by BM_BondTable).
  // Arg = atom count.
  System s = diamond_with_atoms(Element::C, 3.567, state.range(0));
  structures::perturb(s, 0.02, 7);
  const tb::TbModel m = tb::xwch_carbon();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocksAndDerivatives);
  const auto h = tb::build_hamiltonian(m, s, table);
  const auto eig = linalg::eigh(h);
  const auto occ = tb::occupy(eig.values, s.total_valence_electrons(), 0.0);
  const auto rho = tb::density_matrix(eig.vectors, occ.weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb::band_forces(table, rho));
  }
  state.counters["atoms"] = static_cast<double>(s.size());
}
BENCHMARK(BM_BandForces)->Arg(64)->Arg(216)->Unit(benchmark::kMillisecond);

void BM_DensityMatrix(benchmark::State& state) {
  // Arg = orbital count (4 per atom): 256 -> the 64-atom diamond cell.
  System s = diamond_with_atoms(Element::C, 3.567, state.range(0) / 4);
  const tb::TbModel m = tb::xwch_carbon();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  const auto eig = linalg::eigh(tb::build_hamiltonian(m, s, list));
  const auto occ = tb::occupy(eig.values, s.total_valence_electrons(), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb::density_matrix(eig.vectors, occ.weights));
  }
}
BENCHMARK(BM_DensityMatrix)->Arg(256)->Arg(864)->Unit(benchmark::kMillisecond);

void BM_TersoffForceCall(benchmark::State& state) {
  const int nx = state.range(0);
  System s = structures::diamond(Element::Si, 5.431, nx, nx, nx);
  structures::perturb(s, 0.05, 9);
  potentials::TersoffCalculator calc(potentials::tersoff_silicon());
  (void)calc.compute(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.compute(s).energy);
  }
  state.counters["atoms"] = static_cast<double>(s.size());
}
BENCHMARK(BM_TersoffForceCall)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_BsrSpMMSym(benchmark::State& state) {
  // Symmetric-half H * H with a warm frozen pattern -- the steady-state
  // SpMM of the purification loop: upper-triangle tiles only and zero
  // symbolic-phase work after the first iteration.  Arg = atom count.
  System s = diamond_with_atoms(Element::C, 3.567, state.range(0));
  const tb::TbModel m = tb::xwch_carbon();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const onx::BlockSparseMatrix h = onx::build_block_hamiltonian(m, s, table);
  onx::BlockSparseMatrix out;
  onx::BsrWorkspace ws;
  onx::BsrPattern pattern;
  h.multiply_sym_into(h, 1e-8, out, ws, &pattern);  // cold symbolic build
  for (auto _ : state) {
    h.multiply_sym_into(h, 1e-8, out, ws, &pattern);
    benchmark::DoNotOptimize(out.nnz());
  }
  state.counters["blocks"] = static_cast<double>(h.block_count());
  state.counters["symbolic"] = static_cast<double>(ws.stats.symbolic_builds);
}
BENCHMARK(BM_BsrSpMMSym)->Arg(64)->Arg(216)->Unit(benchmark::kMillisecond);

void BM_BsrSpMMSym_f32(benchmark::State& state) {
  // The fp32 twin of BM_BsrSpMMSym: the same warm symmetric-half H * H on
  // fp32 tiles -- the SpMM the mixed-precision purification loop runs in
  // its loose-early iterations.  Half the memory traffic plus twice the
  // SIMD lanes where the numeric sweep is bandwidth-bound; the acceptance
  // gate asks for >= 1.3x over BM_BsrSpMMSym at the same atom count.
  // Arg = atom count.
  System s = diamond_with_atoms(Element::C, 3.567, state.range(0));
  const tb::TbModel m = tb::xwch_carbon();
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const onx::BlockSparseMatrix h = onx::build_block_hamiltonian(m, s, table)
                                       .to_precision(onx::TilePrecision::kF32);
  onx::BlockSparseMatrix out;
  onx::BsrWorkspace ws;
  onx::BsrPattern pattern;
  h.multiply_sym_into(h, 1e-8, out, ws, &pattern);  // cold symbolic build
  for (auto _ : state) {
    h.multiply_sym_into(h, 1e-8, out, ws, &pattern);
    benchmark::DoNotOptimize(out.nnz());
  }
  state.counters["blocks"] = static_cast<double>(h.block_count());
  state.counters["symbolic"] = static_cast<double>(ws.stats.symbolic_builds);
}
BENCHMARK(BM_BsrSpMMSym_f32)->Arg(216)->Unit(benchmark::kMillisecond);

void BM_BsrSpMMSym_spd(benchmark::State& state) {
  // Symmetric-half SpMM on a *mixed* block layout: fcc Au (9x9 spd tiles)
  // with every 4th site substituted by an s-only impurity, so the product
  // exercises the 9x9 unrolled micro-kernel, the generic rectangular path
  // (1x9 / 9x1 tiles) and the variable-layout symbolic machinery at once.
  // Arg = fcc cells per edge (3 -> 108 atoms, 4 -> 256 atoms; 2 cells
  // would undercut the 2*(r_cut+skin) minimum image height).
  const int nx = static_cast<int>(state.range(0));
  tb::TbModel m = tb::kirchhoff_gold();
  {
    const tb::PairParams au_au = m.pair(0, 0);
    tb::SpeciesParams au = m.species[0];
    tb::SpeciesParams h;
    h.element = Element::H;
    h.orbitals = 1;
    h.e_s = -6.0;
    m.set_species({au, h});
    m.set_pair(0, 0, au_au);
    tb::PairParams au_h;
    au_h.integrals.sss = -1.0;
    au_h.integrals.pss = -1.3;
    au_h.integrals.dss = -0.5;
    au_h.hopping = au_au.hopping;
    au_h.phi0 = au_au.phi0;
    au_h.repulsive = au_au.repulsive;
    m.set_pair(0, 1, au_h);
    tb::PairParams h_h;
    h_h.integrals.sss = -0.8;
    h_h.hopping = au_au.hopping;
    h_h.phi0 = au_au.phi0;
    h_h.repulsive = au_au.repulsive;
    m.set_pair(1, 1, h_h);
  }
  System s = structures::fcc(Element::Au, 4.08, nx, nx, nx);
  std::vector<std::size_t> sites;
  for (std::size_t i = 0; i < s.size(); i += 4) sites.push_back(i);
  structures::substitute(s, sites, Element::H);
  structures::perturb(s, 0.02, 7);
  NeighborList list;
  list.build(s.positions(), s.cell(), {m.cutoff(), 0.3});
  tb::BondTable table;
  table.build(m, s, list, tb::BondTable::Mode::kBlocks);
  const onx::BlockSparseMatrix h = onx::build_block_hamiltonian(m, s, table);
  onx::BlockSparseMatrix out;
  onx::BsrWorkspace ws;
  onx::BsrPattern pattern;
  h.multiply_sym_into(h, 1e-8, out, ws, &pattern);  // cold symbolic build
  for (auto _ : state) {
    h.multiply_sym_into(h, 1e-8, out, ws, &pattern);
    benchmark::DoNotOptimize(out.nnz());
  }
  state.counters["atoms"] = static_cast<double>(s.size());
  state.counters["blocks"] = static_cast<double>(h.block_count());
}
BENCHMARK(BM_BsrSpMMSym_spd)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TbOnStep(benchmark::State& state) {
  // Full O(N) force call (bond table, BSR assembly, PM purification on the
  // blocked substrate, blocked force contraction) at the exp_f1 production
  // tolerance.  Arg = atom count.
  System s = diamond_with_atoms(Element::C, 3.567, state.range(0));
  structures::perturb(s, 0.02, 3);
  CalculatorSpec opt = CalculatorSpec::order_n(1e-6);
  onx::OrderNCalculator calc(tb::xwch_carbon(), opt);
  (void)calc.compute(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.compute(s).energy);
  }
  state.counters["atoms"] = static_cast<double>(s.size());
}
BENCHMARK(BM_TbOnStep)->Arg(64)->Arg(216)->Unit(benchmark::kMillisecond);

void BM_SkBlockWithDerivative(benchmark::State& state) {
  // One carbon-carbon 4x4 block plus its three derivative blocks.
  const tb::TbModel m = tb::xwch_carbon();
  const Vec3 bond{0.8, 0.9, 0.7};
  double block[16];
  double deriv[48];
  for (auto _ : state) {
    tb::sk_pair_block_into(m.pair(0, 0), 4, 4, bond, norm(bond), block, deriv);
    benchmark::DoNotOptimize(block);
    benchmark::DoNotOptimize(deriv);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SkBlockWithDerivative);

void BM_TbFullStep(benchmark::State& state) {
  const int nx = state.range(0);
  System s = structures::diamond(Element::C, 3.567, nx, nx, 2);
  structures::perturb(s, 0.02, 11);
  tb::TightBindingCalculator calc(tb::xwch_carbon());
  (void)calc.compute(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.compute(s).energy);
  }
  state.counters["atoms"] = static_cast<double>(s.size());
}
BENCHMARK(BM_TbFullStep)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_TbStepPartialSpectrum(benchmark::State& state) {
  // Same full TBMD step, but with the MD production configuration: no
  // eigenvalue reporting, so the calculator only diagonalizes the occupied
  // window.  Compare against BM_TbFullStep for the end-to-end win.
  const int nx = state.range(0);
  System s = structures::diamond(Element::C, 3.567, nx, nx, 2);
  structures::perturb(s, 0.02, 11);
  CalculatorSpec opt;
  opt.report_eigenvalues = false;  // kAuto then takes the partial path
  tb::TightBindingCalculator calc(tb::xwch_carbon(), opt);
  (void)calc.compute(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.compute(s).energy);
  }
  state.counters["atoms"] = static_cast<double>(s.size());
}
BENCHMARK(BM_TbStepPartialSpectrum)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
