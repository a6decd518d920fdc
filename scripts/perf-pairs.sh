#!/usr/bin/env bash
# Compare two prebuilt `parlog-perf` binaries on one workload by
# alternating pairs of untraced passes, the way a claimed gain is judged.
#
# Usage: scripts/perf-pairs.sh <parent-bin> <change-bin> <workload> <seed> [pairs]
#
# Each pair runs both binaries for BENCHMARK.json's `run_seconds`, the
# parent first in even pairs and the change first in odd ones (default:
# 10 pairs). Every pass must print `"correct": true` and `"failed": 0`.
# For each end-to-end metric of BENCHMARK.json it prints every pair's
# two values, each side's median and quartiles (linear interpolation),
# the change's wins (the better side of each pair by the metric's
# `better`; ties count for neither) and whether the gain rule holds:
# the change wins at least nine tenths of the pairs and its median beats
# the parent's by more than the parent's interquartile range. It also
# prints each median's relative change against the metric's `bound`.
# The script reads BENCHMARK.json and runs the two binaries; it writes
# nothing into the repository.
set -euo pipefail
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  sed -n '4p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=${5:-10}
repo=$(cd "$(dirname "$0")/.." && pwd)
bench="$repo/BENCHMARK.json"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

pass() { # <side> <bin> <pair>: one untraced pass, its JSON line kept
  "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
    tail -n 1 >"$out/$1.$3.json"
}

echo "workload $workload, seed $seed, $pairs pairs of ${seconds} s passes"
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    pass parent "$parent" "$i"
    pass change "$change" "$i"
  else
    pass change "$change" "$i"
    pass parent "$parent" "$i"
  fi
done

python3 - "$bench" "$out" "$pairs" <<'EOF'
import json, sys

bench, out, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])

def load(side, i):
    run = json.load(open(f"{out}/{side}.{i}.json"))
    if run["correct"] is not True or run["failed"] != 0:
        sys.exit(f"{side} pass {i}: correct={run['correct']} failed={run['failed']}")
    return run["metrics"]

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

runs = {s: [load(s, i) for i in range(pairs)] for s in ("parent", "change")}
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r[name]["value"] for r in runs["parent"]]
    c = [r[name]["value"] for r in runs["change"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = ([quantile(xs, q) for q in (0.25, 0.5, 0.75)] for xs in (p, c))
    gap = (pm - cm) if lower else (cm - pm)
    rule = wins * 10 >= 9 * pairs and gap > p3 - p1
    rel = (cm - pm) / pm if pm else 0.0
    worse = rel if lower else -rel
    print(f"\n{name} ({m['unit']}, {m['better']} is better)")
    print("  pairs (parent, change): " + ", ".join(f"({a:.4g}, {b:.4g})" for a, b in zip(p, c)))
    print(f"  parent  median {pm:.4g}  quartiles {p1:.4g} .. {p3:.4g}")
    print(f"  change  median {cm:.4g}  quartiles {c1:.4g} .. {c3:.4g}")
    print(f"  change wins {wins}/{pairs}; median change {rel:+.1%}; "
          f"{'worse than' if worse > m['bound'] else 'within'} its bound {m['bound']}")
    print(f"  gain rule (>= 9/10 wins, median gap > parent IQR {p3 - p1:.4g}): "
          f"{'holds' if rule else 'does not hold'}")
EOF
