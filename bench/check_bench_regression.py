#!/usr/bin/env python3
"""Gate CI on hot-kernel performance against BENCH_baseline.json.

Usage:
    check_bench_regression.py RESULT_JSON [--baseline BENCH_baseline.json]
        [--kernel BM_Eigh/256 ...] [--max-regression 0.25]
        [--normalize-by median | --normalize-by BM_Gemm/256 | --no-normalize]

The default gated set covers the step-pipeline hot kernels: the
eigensolvers, the bond-table build, the density-matrix rank-k update, the
blocked-sparse SpMMs (the symmetric-half warm-pattern production kernel
BM_BsrSpMMSym/216 and its fp32 twin BM_BsrSpMMSym_f32/216 -- the
mixed-precision loose-phase kernel) and the
full O(N) purification step (BM_TbOnStep/216).  (BM_BandForces/216 is
recorded but not gated: a ~40 us kernel has a process-level noise floor
wider than any regression worth gating on.)

RESULT_JSON is google-benchmark ``--benchmark_out`` output from the current
build; the baseline is the repo's recorded BENCH_baseline.json (serial_ms
per kernel).  A kernel fails when

    current_ms / current_ref_ms  >  (1 + max_regression) * base_ms / base_ref_ms

where ref is the calibration factor.  The default (--normalize-by median)
uses the median of current/baseline ratios over every kernel present in
both files: a uniform machine-speed difference between the baseline host
and the CI runner shifts all ratios equally and cancels exactly, while a
genuine regression in one kernel barely moves the median of many.  The
smoke set therefore includes kernels with no shared code (neighbor list,
Tersoff, blocked-sparse multiply) so that even a regression correlated
across all of the gated linalg kernels cannot drag the median with it.  This is
far more robust than designating one calibration kernel (a single kernel
-- e.g. a cache-boundary-sized GEMM -- can be bimodal across processes on
shared hosts, poisoning every normalized ratio).  Passing a kernel name
instead restores single-kernel calibration; --no-normalize compares raw
milliseconds (only meaningful on the baseline machine itself).
"""

import argparse
import json
import sys

TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def load_result(path):
    """Per-kernel time in ms.  With --benchmark_repetitions the median
    aggregate row is used (robust against a noisy-neighbor burst hitting
    one repetition); plain single runs fall back to the iteration row.
    BigO/RMS aggregates from ->Complexity() families are ignored."""
    with open(path) as f:
        doc = json.load(f)
    iters, medians = {}, {}
    for row in doc.get("benchmarks", []):
        if "real_time" not in row:
            continue  # BigO/RMS aggregate rows carry coefficients instead
        ms = row["real_time"] * TO_MS[row["time_unit"]]
        run_type = row.get("run_type", "iteration")
        if run_type == "iteration":
            iters[row["name"]] = ms
        elif run_type == "aggregate" and row.get("aggregate_name") == "median":
            medians[row.get("run_name", row["name"])] = ms
    return {**iters, **medians}  # medians win over raw repetition rows


def load_baseline(path):
    """Baseline ms per kernel.  gate_ms (recorded by run_bench.sh with the
    same short invocation the CI smoke step uses) is preferred over the
    sustained-pass serial_ms: long passes depress FLOP-dense kernels more
    than branchy ones, so only gate-pass numbers are comparable with CI."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for k in doc["bench_kernels"]["kernels"]:
        ms = k.get("gate_ms", k.get("serial_ms"))
        if ms is not None:
            out[k["name"]] = ms
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("result", help="google-benchmark JSON from this build")
    ap.add_argument("--baseline", default="BENCH_baseline.json")
    ap.add_argument("--kernel", action="append", default=[],
                    help="kernel(s) to gate, optionally NAME=FRAC to give "
                         "one kernel a tighter limit than --max-regression; "
                         "default: eigensolvers, bond table, density matrix, "
                         "blocked SpMM and the full O(N) step "
                         "(BM_BandForces is recorded but ungated: too noisy "
                         "at ~40 us)")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional slowdown (default 0.25)")
    ap.add_argument("--normalize-by", default="median",
                    help="'median' (default: median current/baseline ratio "
                         "over all shared kernels) or a calibration kernel "
                         "name cancelling machine speed")
    ap.add_argument("--no-normalize", action="store_true",
                    help="compare raw milliseconds instead")
    args = ap.parse_args()
    # BM_BsrSpMMSym/216 carries a tighter 5% limit: it is the steady-state
    # purification kernel on the uniform sp fast path, and the variable-
    # block generalization must stay effectively free for carbon/silicon.
    # The fp32 twin rides at the default limit: it is ISA-sensitive (packed
    # ps lanes gain more from AVX/FMA than the median kernel), so a
    # non-native CI build shifts its normalized ratio more than the fp64
    # kernels'.
    specs = args.kernel or ["BM_Eigh/256", "BM_EighPartial/256",
                            "BM_BondTable/216", "BM_DensityMatrix/256",
                            "BM_BsrSpMMSym/216=0.05",
                            "BM_BsrSpMMSym_f32/216", "BM_TbOnStep/216"]
    kernels = []
    for spec in specs:  # NAME or NAME=FRAC (per-kernel limit override)
        name, _, frac = spec.partition("=")
        kernels.append((name, float(frac) if frac else args.max_regression))

    current = load_result(args.result)
    baseline = load_baseline(args.baseline)

    ref_cur = ref_base = 1.0
    if not args.no_normalize:
        if args.normalize_by == "median":
            shared = sorted(set(current) & set(baseline))
            if not shared:
                print("error: no kernels shared between result and baseline")
                return 2
            ratios = sorted(current[k] / baseline[k] for k in shared)
            mid = len(ratios) // 2
            ref_cur = (ratios[mid] if len(ratios) % 2
                       else 0.5 * (ratios[mid - 1] + ratios[mid]))
            ref_base = 1.0
            print(f"calibration: median current/baseline ratio "
                  f"{ref_cur:.3f} over {len(shared)} kernels")
        else:
            ref = args.normalize_by
            if ref not in current or ref not in baseline:
                print(f"error: calibration kernel {ref} missing from "
                      f"{'result' if ref not in current else 'baseline'}")
                return 2
            ref_cur, ref_base = current[ref], baseline[ref]
            print(f"calibration {ref}: current {ref_cur:.3f} ms, "
                  f"baseline {ref_base:.3f} ms")

    failed = False
    for name, limit in kernels:
        if name not in current:
            print(f"error: {name} missing from benchmark output")
            return 2
        if name not in baseline:
            print(f"note: {name} has no baseline entry yet; skipping")
            continue
        score = current[name] / ref_cur
        base_score = baseline[name] / ref_base
        ratio = score / base_score
        verdict = "FAIL" if ratio > 1.0 + limit else "ok"
        failed |= verdict == "FAIL"
        print(f"{verdict:4} {name}: current {current[name]:.3f} ms, "
              f"baseline {baseline[name]:.3f} ms, "
              f"normalized ratio {ratio:.3f} "
              f"(limit {1.0 + limit:.2f})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
