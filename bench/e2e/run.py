#!/usr/bin/env python3
"""End-to-end TBMD benchmark driver (see README.md; run it via run.sh).

    run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
           [--repeat N] [--pairs N --parent SHA] [--out FILE]

Builds bench/e2e (libtbmd from this tree, the project's own flags), then for
each workload runs a discarded 1-step warm-up process followed by the
measured process, with OMP_NUM_THREADS = min(4, nproc).  Prints the
programs' `workload metric value unit` lines and, last, one JSON object
{correct, attempted, failed, metrics}; with --workload the metrics are the
BENCHMARK.json end_to_end set (per_layer with --trace 1).  Writes every
run to bench/e2e/out/results.json.  Exits 1 when a correctness check
failed, 2 when the benchmark could not run.

--repeat N   N runs per workload, seeds S..S+N-1; prints each metric's
             median and relative IQR against its bound.
--pairs N --parent SHA
             N parent/change pairs per workload on seeds S..S+N-1,
             alternating which side runs first; the parent tree comes from
             `git archive SHA` with this tree's bench/e2e copied over it, so
             both sides run identical benchmark code.  Then runs compare.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["cnt_exact_md", "on_diamond_md", "on_si_defect_hot", "sweep_si64"]
THREADS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.sh: {msg}", file=sys.stderr)
    sys.exit(2)


def load_benchmark(root):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build(tree, target):
    """Configure (once) and build `target` of tree/bench/e2e; returns it."""
    if not (tree / "CMakeLists.txt").is_file() or not (tree / "src").is_dir():
        fail(f"{tree} is not a tbmd source tree (needs CMakeLists.txt and src/)")
    src, bld = tree / "bench" / "e2e", tree / "bench" / "e2e" / "build"
    log = bld.parent / "out" / "build.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bld / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(src), "-B", str(bld), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bld), "-j", str(THREADS),
                  "--target", target])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})")
    return bld / target


def run_once(binary, workload, seed, seconds, out_dir):
    """Warm-up process, then the measured one; returns its result record."""
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--out", str(out_dir)]
    warm = binary.with_name("tbmd_e2e")
    start = time.monotonic()
    try:
        subprocess.run([str(warm), *common, "--warmup"], env=env,
                       stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
        left = RUN_TIMEOUT_S - (time.monotonic() - start)
        proc = subprocess.run([str(binary), *common], env=env, text=True,
                              stdout=subprocess.PIPE, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{workload} seed {seed}: {binary.name} exited {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, **result}


def benchmark_metrics(record, spec, trace):
    """The BENCHMARK.json metric set of one run (all of them, or exit 2)."""
    names = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in names:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"{record['workload']}: metric {m['name']} missing")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def spread_table(records, spec, trace):
    """Median and relative IQR per workload and metric, against the bound."""
    names = spec["per_layer" if trace else "end_to_end"]
    print(f"{'workload':18} {'metric':32} {'median':>12} {'rel_iqr':>8} "
          f"{'bound':>6}  spread")
    for w in dict.fromkeys(r["workload"] for r in records):
        for m in names:
            vals = [r["metrics"][m["name"]]["value"] for r in records
                    if r["workload"] == w and m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            verdict = "-" if bound is None else (
                "ok" if rel < bound / 3 else
                "within bound" if rel <= bound else "TOO WIDE")
            print(f"{w:18} {m['name']:32} {med:12.6g} {rel:8.2%} "
                  f"{'' if bound is None else format(bound, '.0%'):>6}  {verdict}")


def parent_tree(rev, out_dir):
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    if not sha:
        fail(f"unknown commit {rev}")
    tree = out_dir / f"parent-{sha}"
    if not tree.is_dir():
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 stdout=subprocess.PIPE)
        if archive.returncode:
            fail(f"git archive {sha} failed")
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout,
                       check=True)
    dst = tree / "bench" / "e2e"
    dst.mkdir(parents=True, exist_ok=True)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy2(f, dst / f.name)
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def main():
    spec = load_benchmark(ROOT)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--parent")
    ap.add_argument("--out", type=Path, default=HERE / "out" / "results.json")
    a = ap.parse_args()
    if a.pairs and not a.parent:
        fail("--pairs needs --parent SHA")

    out_dir = HERE / "out"  # build() creates it
    target = "tbmd_e2e_trace" if a.trace else "tbmd_e2e"
    binary = build(ROOT, target)
    if a.trace:
        build(ROOT, "tbmd_e2e")  # the warm-up process
    workloads = [a.workload] if a.workload else WORKLOADS

    if a.pairs:
        ptree = parent_tree(a.parent, out_dir)
        pbin = build(ptree, target)
        if a.trace:
            build(ptree, "tbmd_e2e")
        sides = {"parent": [], "change": []}
        for i in range(a.pairs):
            order = [("parent", pbin), ("change", binary)]
            for side, b in order if i % 2 == 0 else order[::-1]:
                for w in workloads:
                    rec = run_once(b, w, a.seed + i, a.seconds, out_dir)
                    sides[side].append({**rec, "trace": a.trace, "side": side})
        files = []
        for side, recs in sides.items():
            path = out_dir / f"pairs-{side}.json"
            path.write_text(json.dumps({"runs": recs}, indent=1))
            files.append(str(path))
        return subprocess.run([sys.executable, str(HERE / "compare.py"),
                               *files]).returncode

    records = []
    for i in range(a.repeat):
        for w in workloads:
            rec = run_once(binary, w, a.seed + i, a.seconds, out_dir)
            records.append({**rec, "trace": a.trace})
    a.out.parent.mkdir(parents=True, exist_ok=True)
    a.out.write_text(json.dumps({"threads": THREADS, "runs": records}, indent=1))
    if a.repeat > 1:
        spread_table(records, spec, a.trace)

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = benchmark_metrics(records[0], spec, a.trace)
    else:  # several workloads or repeats: median per workload.metric
        values = {}
        for r in records:
            for k, v in benchmark_metrics(r, spec, a.trace).items():
                key = f"{r['workload']}.{k}"
                values.setdefault(key, (v["unit"], []))[1].append(v["value"])
        metrics = {k: {"value": statistics.median(vals), "unit": unit}
                   for k, (unit, vals) in values.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
