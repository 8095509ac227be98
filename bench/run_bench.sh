#!/usr/bin/env bash
# Baseline performance driver: runs the hot-kernel microbenchmarks serial
# (OMP_NUM_THREADS=1) and OpenMP-parallel (all cores), plus the EXP-F1
# step-scaling experiment, and writes a machine-readable BENCH_baseline.json
# next to this script's repo root so every future perf PR has a trajectory
# to beat.
#
# Usage:  bench/run_bench.sh [build-dir]
# Env:    THREADS=<n>   thread count for the parallel pass (default: nproc)
#         FILTER=<re>   benchmark filter (default: representative hot kernels)
#         SKIP_F1=1     skip the exp_f1 scaling experiment (~5 min); the JSON
#                       then records exp_f1_step_scaling: null (CI smoke mode)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
# Absolutize: the F1 experiment runs from a temp dir, so a relative
# build-dir argument would otherwise stop resolving there.
mkdir -p "${BUILD_DIR}"
BUILD_DIR="$(cd "${BUILD_DIR}" && pwd)"
THREADS="${THREADS:-$(nproc)}"
FILTER="${FILTER:-BM_Eigh/128|BM_Eigh/256|BM_EighPartial/128|BM_EighPartial/256|BM_EighPartialTube|BM_BlockedTridiag/256|BM_Gemm/256|BM_BuildHamiltonian/3|BM_NeighborBuild/2000|BM_BondTable/216|BM_BandForces/216|BM_DensityMatrix/256|BM_BsrSpMMSym/216|BM_BsrSpMMSym_f32/216|BM_BsrSpMMSym_spd/4|BM_TbOnStep/216|BM_TersoffForceCall/2|BM_TbStepPartialSpectrum/3}"
OUT="${REPO_ROOT}/BENCH_baseline.json"

if [[ ! -x "${BUILD_DIR}/bench_kernels" || ! -x "${BUILD_DIR}/exp_f1_step_scaling" ]]; then
  echo "== building bench targets in ${BUILD_DIR}"
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" >/dev/null
  if ! cmake --build "${BUILD_DIR}" -j --target bench_kernels exp_f1_step_scaling >/dev/null; then
    echo "error: could not build bench targets in ${BUILD_DIR}." >&2
    echo "       bench_kernels needs google-benchmark (Debian: libbenchmark-dev)," >&2
    echo "       and the build dir must be configured with -DTBMD_BUILD_BENCH=ON." >&2
    exit 1
  fi
fi

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

# Warm-up (discarded): the first benchmark run after a build/idle period
# measures the CPU ramping up, which skews the calibration-kernel ratios
# the regression gate depends on.
echo "== bench_kernels: warm-up pass (discarded)"
OMP_NUM_THREADS=1 "${BUILD_DIR}/bench_kernels" \
  --benchmark_filter='BM_Gemm/256|BM_Eigh/256$' \
  --benchmark_min_time=0.5 >/dev/null 2>&1 || true

# Gate pass: the CI-gated kernels measured with the exact invocation the CI
# smoke step uses (short run, fresh-ish thermal state, median of 3 reps).
# Sustained multi-minute passes depress the FLOP-dense Gemm calibration
# kernel more than the branchier solvers, so gated numbers recorded inside
# the long trajectory pass are not comparable with CI's short smoke run.
# Must match the CI smoke filter (ci.yml): includes independent kernels
# (neighbor list, Tersoff, sparse multiply) so the checker's median
# calibration cannot be dragged by a regression correlated across the
# gated linalg kernels.
GATE_FILTER='BM_Eigh/256|BM_EighPartial/256|BM_Gemm/256|BM_BondTable/216|BM_BandForces/216|BM_DensityMatrix/256|BM_NeighborBuild/2000|BM_TersoffForceCall/2|BM_BsrSpMMSym/216|BM_BsrSpMMSym_f32/216|BM_BsrSpMMSym_spd/4|BM_TbOnStep/216'
echo "== bench_kernels: gate pass (OMP_NUM_THREADS=1, median of 3 reps)"
OMP_NUM_THREADS=1 "${BUILD_DIR}/bench_kernels" \
  --benchmark_filter="${GATE_FILTER}" --benchmark_min_time=0.5 \
  --benchmark_repetitions=3 \
  --benchmark_format=json --benchmark_out="${TMP}/gate.json" \
  --benchmark_out_format=json >/dev/null

echo "== bench_kernels: serial pass (OMP_NUM_THREADS=1, median of 3 reps)"
OMP_NUM_THREADS=1 "${BUILD_DIR}/bench_kernels" \
  --benchmark_filter="${FILTER}" --benchmark_repetitions=3 \
  --benchmark_format=json --benchmark_out="${TMP}/serial.json" \
  --benchmark_out_format=json >/dev/null

echo "== bench_kernels: OpenMP pass (OMP_NUM_THREADS=${THREADS}, median of 3 reps)"
OMP_NUM_THREADS="${THREADS}" "${BUILD_DIR}/bench_kernels" \
  --benchmark_filter="${FILTER}" --benchmark_repetitions=3 \
  --benchmark_format=json --benchmark_out="${TMP}/omp.json" \
  --benchmark_out_format=json >/dev/null

F1_SECONDS=""
if [[ "${SKIP_F1:-0}" != "1" ]]; then
  echo "== exp_f1_step_scaling (OMP_NUM_THREADS=${THREADS})"
  F1_START=$(date +%s.%N)
  (cd "${TMP}" && OMP_NUM_THREADS="${THREADS}" "${BUILD_DIR}/exp_f1_step_scaling" >f1.log)
  F1_SECONDS=$(awk -v a="${F1_START}" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
else
  echo "== exp_f1_step_scaling skipped (SKIP_F1=1)"
fi

python3 - "${TMP}" "${OUT}" "${THREADS}" "${F1_SECONDS}" "${REPO_ROOT}" <<'PY'
import csv, json, platform, statistics, sys
from datetime import datetime, timezone

tmp, out, threads = sys.argv[1], sys.argv[2], int(sys.argv[3])
f1_seconds = float(sys.argv[4]) if sys.argv[4] else None  # empty: SKIP_F1=1

# Share the benchmark-JSON parsing (median-aggregate precedence) with the
# CI regression checker so the recorded gate_ms and the gate comparison can
# never desynchronize.
sys.path.insert(0, f"{sys.argv[5]}/bench")
from check_bench_regression import load_result

def load(path):
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    return load_result(path), ctx

serial, ctx = load(f"{tmp}/serial.json")
gate, _ = load(f"{tmp}/gate.json")
parallel, _ = load(f"{tmp}/omp.json")

# serial_ms/omp_ms/speedup all come from the two sustained full passes
# (same thermal context); gate_ms is the CI-smoke-comparable short-pass
# measurement the regression checker compares against.
kernels = []
for name in serial:
    s, p = serial[name], parallel.get(name)
    entry = {
        "name": name,
        "serial_ms": round(s, 4),
        "omp_ms": round(p, 4) if p is not None else None,
        "speedup": round(s / p, 3) if p else None,
    }
    if name in gate:
        entry["gate_ms"] = round(gate[name], 4)
    kernels.append(entry)

speedups = [k["speedup"] for k in kernels if k["speedup"]]
geomean = round(statistics.geometric_mean(speedups), 3) if speedups else None

f1 = None
if f1_seconds is not None:
    with open(f"{tmp}/exp_f1_step_scaling.csv") as f:
        f1 = {"wall_seconds": round(f1_seconds, 2), "rows": list(csv.DictReader(f))}

doc = {
    "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    "host": {
        "machine": platform.machine(),
        "num_cpus": ctx.get("num_cpus"),
        "cpu_mhz": ctx.get("mhz_per_cpu"),
    },
    "threads_parallel_pass": threads,
    "bench_kernels": {
        "kernels": kernels,
        "speedup_geomean": geomean,
        "note": "speedup == serial_ms / omp_ms; ~1.0 expected on single-core hosts",
    },
    "exp_f1_step_scaling": f1,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")

print(f"== wrote {out}")
print(f"   kernels: {len(kernels)}, OpenMP speedup geomean: {geomean} "
      f"({threads} threads, {ctx.get('num_cpus')} cpus)")
if f1 is not None:
    print(f"   exp_f1 wall: {f1['wall_seconds']}s, {len(f1['rows'])} size points")
PY
