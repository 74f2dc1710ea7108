#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs, metric by metric.

    python3 bench_e2e/compare.py runsA.txt runsB.txt

Each file holds one run per line: the workload name, a space, and the JSON
result line run.py printed, e.g. collected with

    python3 bench_e2e/run.py --workload mixed --seed 3 | tail -1 \\
        | sed 's/^/mixed /' >> runsA.txt

A is the parent (baseline), B the change.  Pair runs in the order they were
made, alternating which side runs first.  For every (workload, metric) row
this prints both sides' median and quartiles, the share of pairs B won
(ties count for neither), and one verdict, with the bound from
BENCHMARK.json:

  unresolved  the spread between quartiles, as a share of the median, is
              wider than the bound on either side, and B does not read
              better than A on every run
  regressed   B's median is worse than A's by more than the bound
  improved    B won at least 9/10 of the pairs and the medians differ by
              more than A's own spread between quartiles
  no change   otherwise

A row also regresses when B failed more operations than A.  Metrics
BENCHMARK.json gives no bound (the per-layer metrics) get medians only.
Exits 1 when any row regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{workload: [result, ...]} in file order."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        name, _, rest = line.strip().partition(" ")
        if not rest:
            continue
        try:
            runs[name].append(json.loads(rest))
        except json.JSONDecodeError:
            print(f"{path}: skipping unparsable line for {name}", file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    """Applies the rules in the module docstring to two lists of values."""
    def better(x, y):  # x reads better than y
        return x < y if lower_is_better else x > y

    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs) / len(pairs) if pairs else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    worse = ((bm - am) if lower_is_better else (am - bm)) / abs(am) if am else 0.0
    if spread > bound:
        if all(better(y, x) for x in a for y in b):
            return "improved", wins, spread
        return "unresolved", wins, spread
    if worse > bound:
        return "regressed", wins, spread
    if wins >= 0.9 and abs(bm - am) > (a3 - a1):
        return "improved", wins, spread
    return "no change", wins, spread


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs_a, runs_b = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    header = (f"{'workload':<11} {'metric':<34} {'A q1/median/q3':>32} "
              f"{'B q1/median/q3':>32} {'B wins':>6} {'spread':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(runs_a) & set(runs_b)):
        ra, rb = runs_a[workload], runs_b[workload]
        names = sorted(set.intersection(*(set(r["metrics"]) for r in ra + rb)))
        for name in names:
            a = [r["metrics"][name]["value"] for r in ra]
            b = [r["metrics"][name]["value"] for r in rb]
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            cols = (f"{workload:<11} {name:<34} "
                    f"{a1:>10.4g} {am:>10.4g} {a3:>10.4g} "
                    f"{b1:>10.4g} {bm:>10.4g} {b3:>10.4g}")
            spec = bounds.get(name)
            if spec is None:
                print(f"{cols} {'':>6} {'':>6}  (no bound)")
                continue
            v, wins, spread = verdict(a, b, spec["bound"], spec["better"] == "lower")
            regressed |= v == "regressed"
            print(f"{cols} {wins:>6.2f} {spread:>6.3f}  {v}")
        fa = sum(r["failed"] for r in ra)
        fb = sum(r["failed"] for r in rb)
        if fb > fa:
            regressed = True
        print(f"{workload:<11} {'failed (total)':<34} {fa:>32} {fb:>32} "
              f"{'':>6} {'':>6}  {'regressed' if fb > fa else 'no change'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
