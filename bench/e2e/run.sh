#!/usr/bin/env bash
# End-to-end TBMD benchmark.  Run from anywhere inside a tbmd checkout:
#
#   bench/e2e/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
#                    [--repeat N] [--pairs N --parent SHA] [--out FILE]
#
# Builds bench/e2e against this tree and runs the workloads; see README.md.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
