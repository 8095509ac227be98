#!/usr/bin/env python3
"""Compare parent and change runs of the end-to-end benchmark.

    compare.py PARENT.json... -- CHANGE.json...
    compare.py PARENT.json CHANGE.json

Each file is a results.json written by run.sh (a list of runs).  Runs are
paired per workload in file order, so pair i should share its seed (run.sh
--pairs does this).  One row per workload and metric:

  * each side's median and quartiles (statistics.quantiles, n=4);
  * the share of pairs the change won (ties count for neither side);
  * a verdict for end_to_end metrics, against the bound in BENCHMARK.json:
      gain        at least 10 pairs, the change won >= 9/10 of them, and
                  the medians differ by more than the parent's own IQR;
      regression  the change's median is worse by more than the bound;
      unresolved  the parent's relative IQR exceeds the bound, so "no
                  worse than the bound" cannot be shown (unless every
                  change run beats every parent run);
      same        otherwise.
    Per-layer metrics have no bound and get no verdict.

Exits 1 when any end_to_end metric regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# A gain needs at least this many pairs (choosing-metrics section 8).
MIN_PAIRS = 10


def load(paths):
    runs = []
    for p in paths:
        runs += json.loads(Path(p).read_text())["runs"]
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4))


def verdict(parent, change, lower_better, bound):
    if bound is None:
        return "-"
    sign = 1.0 if lower_better else -1.0
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    better = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(b > 0 for b in better)
    all_better = (max(change) < min(parent) if lower_better
                  else min(change) > max(parent))
    worse = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    if (len(better) >= MIN_PAIRS and wins >= 0.9 * len(better)
            and sign * (med_p - med_c) > q3 - q1):
        return "gain"
    if all_better:
        return "same"
    if worse > bound:
        return "regression"
    if med_p and (q3 - q1) / abs(med_p) > bound:
        return "unresolved"
    return "same"


def main(argv):
    if "--" in argv:
        k = argv.index("--")
        parent_files, change_files = argv[:k], argv[k + 1:]
    elif len(argv) == 2:
        parent_files, change_files = argv[:1], argv[1:]
    else:
        sys.exit(__doc__)
    parent, change = load(parent_files), load(change_files)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m, m["bound"]) for m in spec["end_to_end"]] + \
              [(m, None) for m in spec["per_layer"]]

    print(f"{'workload':18} {'metric':30} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>7}  verdict")
    regressions = 0
    for w in dict.fromkeys(r["workload"] for r in parent):
        for m, bound in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent
                 if r["workload"] == w and name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change
                 if r["workload"] == w and name in r["metrics"]]
            if not p or not c:
                continue
            lower = m["better"] == "lower"
            pairs = list(zip(p, c))
            won = sum((pc < pp) if lower else (pc > pp) for pp, pc in pairs)
            v = verdict(p, c, lower, bound)
            regressions += v == "regression"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{w:18} {name:30} {fmt(quartiles(p)):>32} "
                  f"{fmt(quartiles(c)):>32} {won:>3}/{len(pairs):<3}  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
