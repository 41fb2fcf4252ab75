#!/usr/bin/env python3
"""Compare a parent result set with a change result set.

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines `run.py --results FILE` appends, one per run.
The i-th parent run of a workload is paired with the i-th change run
of that workload; run them alternately (parent, change, change,
parent, ...) with the same seeds.

Per workload and end-to-end metric (bounds from BENCHMARK.json):
  - simulated metrics (names starting with "sim_") are compared exactly
    between pairs that share a seed: "same", or gain / REGRESSION /
    changed when any pair differs (a model change, to be declared).
    Their bound in BENCHMARK.json covers only the spread between
    different seeds; at one seed they repeat exactly, so any change is
    reported;
  - host metrics need at least 10 pairs. "gain" when the change wins at
    least 9 in 10 pairs (ties count for neither) and the medians differ
    by more than the parent's interquartile range; "REGRESSION" when
    the change's median is worse than the parent's by more than the
    bound (setup_s: by more than max(bound, 0.02 s)); "slower" when the
    parent wins by the gain rule but within the bound; "unresolved"
    when the runs spread wider than the bound and neither side wins
    every run; otherwise "ok".
Prints one row per workload and exits 1 if any cell is a regression.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9
SETUP_FLOOR_S = 0.02


def load(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs[record["workload"]].append(record)
    return runs


def value(record, name):
    return record["result"]["metrics"][name]["value"]


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def compare_sim(pairs, metric):
    name, direction = metric["name"], metric["better"]
    same_seed = [(p, c) for p, c in pairs if p["seed"] == c["seed"]]
    if not same_seed:
        return "unresolved (no shared seed)"
    gains = sum(better(value(c, name), value(p, name), direction)
                for p, c in same_seed)
    losses = sum(better(value(p, name), value(c, name), direction)
                 for p, c in same_seed)
    if not gains and not losses:
        return "same"
    ratio = statistics.median(value(c, name) / value(p, name)
                              for p, c in same_seed)
    verdict = ("gain" if not losses else
               "REGRESSION" if not gains else "changed")
    return f"{verdict} {100 * (ratio - 1):+.3f}%"


def compare_host(pairs, metric):
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    if len(pairs) < MIN_PAIRS:
        return f"unresolved ({len(pairs)}<{MIN_PAIRS} pairs)"
    parent = [value(p, name) for p, _ in pairs]
    change = [value(c, name) for _, c in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    delta = f"{100 * (c_med / p_med - 1):+.1f}%"
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    clear_gap = abs(c_med - p_med) > p_q3 - p_q1
    if (wins >= WIN_SHARE * len(pairs) and better(c_med, p_med, direction)
            and clear_gap):
        return f"gain {delta}"
    allowed = bound * p_med
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    worse_by = c_med - p_med if direction == "lower" else p_med - c_med
    all_worse = all(better(p, c, direction) for p in parent for c in change)
    all_better = all(better(c, p, direction) for p in parent for c in change)
    if worse_by > allowed and (spread <= bound or all_worse):
        return f"REGRESSION {delta}"
    if (losses >= WIN_SHARE * len(pairs) and better(p_med, c_med, direction)
            and clear_gap):
        return f"slower {delta}"
    if spread > bound and not all_better:
        return f"unresolved {delta}"
    return f"ok {delta}"


def main():
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_runs, change_runs = load(sys.argv[1]), load(sys.argv[2])
    metrics = SPEC["end_to_end"]
    header = ["workload", "pairs", "failed"] + [m["name"] for m in metrics]
    rows = []
    regression = False
    for workload in [w["name"] for w in SPEC["workloads"]]:
        pairs = list(zip(parent_runs[workload], change_runs[workload]))
        if not pairs:
            continue
        failed_p = sum(p["result"]["failed"] for p, _ in pairs)
        failed_c = sum(c["result"]["failed"] for _, c in pairs)
        cells = [workload, str(len(pairs)), f"{failed_p}->{failed_c}"]
        regression |= failed_c > failed_p
        for metric in metrics:
            if metric["name"].startswith("sim_"):
                cell = compare_sim(pairs, metric)
            else:
                cell = compare_host(pairs, metric)
            regression |= cell.startswith("REGRESSION")
            cells.append(cell)
        rows.append(cells)
    if not rows:
        print("no workload has runs in both files", file=sys.stderr)
        return 2
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
