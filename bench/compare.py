"""Compare benchmark result sets, such as a parent commit's and a change's.

    python3 bench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds the record files ``bench/run.py`` writes to
``.bench_run/results/`` (copy that directory once per commit).  Per
workload and metric it prints each side's median and quartiles and the
spread (quartile distance over median).  With two sets it also gives the
verdict of the no-regression rule, using each end-to-end metric's bound
from BENCHMARK.json:

- ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: a side's spread exceeds the bound, and not every change
  run reads better than every parent run;
- ``gain``: the change wins at least nine tenths of the runs paired by
  seed (the i-th run of a seed on one side with the i-th on the other)
  and the medians differ by more than the parent's spread;
- ``ok``: none of these.

With one set, a metric whose spread exceeds its bound is ``unsteady``.
The exit code is 1 if any metric regressed or is unsteady, else 0.
Metrics without a bound (per-layer ones, and the end-to-end figures a run
reports besides BENCHMARK.json's) are listed without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{(workload, trace): {metric: {seed: [value per run]}}} from a directory of records.

    Every record counts: runs that share a seed are kept in the order they
    ran, which the time stamp ending each record's file name gives.
    """
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        meta = record["meta"]
        metrics = {**record.get("reported", {}), **record["result"]["metrics"]}
        for name, metric in metrics.items():
            out[meta["workload"], record["trace"]][name][meta["seed"]].append(metric["value"])
    return out


def runs(side: dict) -> list[float]:
    return [v for values in side.values() for v in values]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_runs, c_runs = runs(parent), runs(change)
    p_med = quartiles(p_runs)[1]
    c_med = quartiles(c_runs)[1]
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    beats = lambda c, p: sign * (c - p) < 0  # noqa: E731
    if worse_by > bound:
        return "REGRESSION"
    all_better = all(beats(c, p) for c in c_runs for p in p_runs)
    if max(spread(p_runs), spread(c_runs)) > bound and not all_better:
        return "unresolved"
    paired = [pc for s in parent if s in change for pc in zip(parent[s], change[s])]
    wins = sum(beats(c, p) for p, c in paired)
    p_q1, _, p_q3 = quartiles(p_runs)
    if paired and wins >= 0.9 * len(paired) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain"
    return "ok"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv]
    failed = False
    keys = sorted(set().union(*sets))
    for workload, trace in keys:
        print(f"\n== {workload} (trace {trace})")
        metrics = sorted(set().union(*(s[workload, trace] for s in sets)))
        for name in metrics:
            sides = [s[workload, trace].get(name, {}) for s in sets]
            cells = []
            for side in sides:
                if side:
                    q1, q2, q3 = quartiles(runs(side))
                    cells.append(f"n={len(runs(side)):2d} med {q2:12.6g} q1 {q1:12.6g} "
                                 f"q3 {q3:12.6g} spread {spread(runs(side)):.3f}")
                else:
                    cells.append("no runs")
            line = f"  {name:36s} " + " | ".join(cells)
            spec_m = bounds.get(name)
            if spec_m and all(sides):
                if len(sides) == 2:
                    v = verdict(sides[0], sides[1], spec_m["better"], spec_m["bound"])
                    failed |= v == "REGRESSION"
                else:
                    steady = spread(runs(sides[0])) <= spec_m["bound"]
                    v = "steady" if steady else "unsteady"
                    failed |= not steady
                line += f"  [{v}, bound {spec_m['bound']}]"
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
