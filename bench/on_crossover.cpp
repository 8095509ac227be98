/// \file on_crossover.cpp
/// \brief O(N)-vs-exact crossover sweep: per-step wall time of the
/// partial-spectrum exact path (TightBindingCalculator, SpectrumPolicy
/// kPartial via the MD production configuration) against the symmetric-half
/// O(N) purification engine at N from 64 up to 21952 atoms.
///
/// The O(N) calculator is timed in its steady state (warm neighbor list,
/// warm SpMM pattern cache), which is what an MD trajectory pays per step.
/// Prints a table, writes on_crossover.csv (CI artifact of the
/// `on-accuracy` job; the README crossover table is generated from it) and
/// reports the interpolated crossover size.
///
/// Exact diagonalization is only *measured* up to --exact-max atoms (the
/// partial-spectrum path is cubic: 5832 atoms would take hours); larger
/// sizes extrapolate cubically from the last measured point, and the
/// exact_measured column records which rows are real timings.
///
/// Thread-scaling mode (--threads 1,2,4) re-times the O(N) engine at each
/// team size, uses the largest one for the crossover table, and writes the
/// full (N, threads, ms, speedup) grid to on_threads.csv -- the CI
/// `scaling` job's artifact.
///
/// Usage: on_crossover [--reps 2] [--drop 1e-6] [--max-atoms 512]
///                     [--exact-max 1000] [--threads 1,2,4]
///                     [--domains N] [--cache-bounds]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/calculator_spec.hpp"
#include "src/io/table.hpp"
#include "src/onx/on_calculator.hpp"
#include "src/structures/builders.hpp"
#include "src/tb/tb_calculator.hpp"
#include "src/util/parallel.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace tbmd;

double arg_or(int argc, char** argv, const char* name, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

const char* arg_str(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

std::vector<int> parse_thread_list(const char* text) {
  std::vector<int> out;
  if (text == nullptr) return out;
  const std::string s(text);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma - pos);
    const int t = std::atoi(tok.c_str());
    if (t > 0) out.push_back(t);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

double time_force_call(Calculator& calc, System& s, int repeats) {
  (void)calc.compute(s);  // warm: neighbor list, bond table, pattern cache
  WallTimer t;
  for (int q = 0; q < repeats; ++q) (void)calc.compute(s);
  return t.seconds() * 1000.0 / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = static_cast<int>(arg_or(argc, argv, "--reps", 2));
  const double drop = arg_or(argc, argv, "--drop", 1e-6);
  const int max_atoms =
      static_cast<int>(arg_or(argc, argv, "--max-atoms", 512));
  const int exact_max =
      static_cast<int>(arg_or(argc, argv, "--exact-max", 1000));
  const std::vector<int> threads =
      parse_thread_list(arg_str(argc, argv, "--threads"));

  CalculatorSpec oopt = CalculatorSpec::order_n(drop);
  oopt.domains = static_cast<int>(arg_or(argc, argv, "--domains", 0));
  oopt.cache_spectral_bounds = has_flag(argc, argv, "--cache-bounds");

  std::printf("O(N) crossover sweep: exact(kPartial) vs tb_on, drop = %.1e, "
              "%d rep(s)\n", drop, reps);
  if (!threads.empty()) {
    std::printf("thread sweep:");
    for (const int t : threads) std::printf(" %d", t);
    std::printf(" (crossover table uses the largest)\n");
  }
  std::printf("\n");

  struct Spec {
    int nx, ny, nz;
  };
  const std::vector<Spec> specs{{2, 2, 2},    {2, 2, 4},  {3, 3, 3},
                                {3, 3, 4},    {4, 4, 4},  {5, 5, 5},
                                {9, 9, 9},    {14, 14, 14}};

  io::Table table({"N_atoms", "tb_exact_ms", "tb_on_ms", "on_over_exact",
                   "pm_iterations", "fill_fraction", "exact_measured"});
  io::Table tgrid({"N_atoms", "threads", "tb_on_ms", "speedup"});
  const tb::TbModel model = tb::xwch_carbon();
  double prev_ratio = -1.0, prev_n = 0.0, crossover = -1.0;
  double last_exact_ms = -1.0, last_exact_n = 0.0;
  for (const Spec& sp : specs) {
    System s = structures::diamond(Element::C, 3.567, sp.nx, sp.ny, sp.nz);
    if (static_cast<int>(s.size()) > max_atoms) break;
    structures::perturb(s, 0.02, 3);
    const double n = static_cast<double>(s.size());

    // MD production configuration: no eigenvalue reporting, so kAuto takes
    // the partial-spectrum (occupied window) path.  Beyond --exact-max the
    // cubic cost is extrapolated from the last real timing instead.
    double ms_exact;
    const bool exact_measured = static_cast<int>(s.size()) <= exact_max;
    if (exact_measured) {
      CalculatorSpec espec = CalculatorSpec::exact();
      espec.report_eigenvalues = false;
      const auto exact = make_calculator(model, s, espec);
      ms_exact = time_force_call(*exact, s, reps);
      last_exact_ms = ms_exact;
      last_exact_n = n;
    } else if (last_exact_ms > 0.0) {
      const double x = n / last_exact_n;
      ms_exact = last_exact_ms * x * x * x;
    } else {
      std::printf("  N = %.0f skipped: no exact timing to extrapolate from\n",
                  n);
      continue;
    }

    double ms_on = -1.0;
    std::size_t pm_iters = 0;
    double fill = 0.0;
    const std::vector<int> thread_counts =
        threads.empty() ? std::vector<int>{0} : threads;
    double base_ms = -1.0;
    for (const int t : thread_counts) {
      if (t > 0) par::set_num_threads(t);
      onx::OrderNCalculator on(model, oopt);
      const double ms = time_force_call(on, s, reps);
      pm_iters = on.last_purification().iterations;
      fill = on.last_purification().fill_fraction;
      if (base_ms < 0.0) base_ms = ms;
      if (t > 0) {
        tgrid.add_numeric_row(
            {n, static_cast<double>(t), ms, base_ms / ms}, 4);
      }
      ms_on = ms;  // the last (largest) team size drives the crossover
    }

    const double ratio = ms_on / ms_exact;
    table.add_numeric_row({n, ms_exact, ms_on, ratio,
                           static_cast<double>(pm_iters), fill,
                           exact_measured ? 1.0 : 0.0},
                          4);
    std::printf("  measured N = %.0f\n", n);
    // Log-linear interpolation of the N where the ratio crosses 1.
    if (prev_ratio > 1.0 && ratio <= 1.0) {
      const double f = std::log(prev_ratio) /
                       (std::log(prev_ratio) - std::log(ratio));
      crossover = std::exp(std::log(prev_n) +
                           f * (std::log(n) - std::log(prev_n)));
    }
    prev_ratio = ratio;
    prev_n = n;
  }

  std::printf("\n");
  table.print(std::cout);
  table.write_csv("on_crossover.csv");
  if (!threads.empty()) {
    std::printf("\n");
    tgrid.print(std::cout);
    tgrid.write_csv("on_threads.csv");
  }
  if (crossover > 0.0) {
    std::printf("\ncrossover: tb_on beats the exact partial-spectrum path "
                "at N ~ %.0f atoms\n", crossover);
  } else if (prev_ratio > 0.0 && prev_ratio <= 1.0) {
    std::printf("\ncrossover: tb_on already ahead over the whole sweep\n");
  } else {
    std::printf("\ncrossover: not reached within the sweep (ratio %.2f at "
                "N = %.0f)\n", prev_ratio, prev_n);
  }
  return 0;
}
