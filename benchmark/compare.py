#!/usr/bin/env python3
"""Compares two directories of benchmark reports, metric by metric.

  python3 benchmark/compare.py BASE_DIR NEW_DIR [--spec BENCHMARK.json]

Each directory holds the reports run.py writes with --out: repeated runs of
one commit, ideally the same seeds on both sides, run in alternating order.
For every (workload, end-to-end metric) the table gives each side's median
and quartiles, the fraction of seed-paired runs NEW won (ties count for
neither), and a verdict:

  better      NEW won at least 9/10 of the pairs and the medians differ by
              more than BASE's interquartile range
  unresolved  BASE's spread (IQR / median) is wider than the metric's bound,
              and not every NEW run beats every BASE run
  worse       NEW's median is worse than BASE's by more than the bound
  same        otherwise

From traced reports, per-layer counts (unit "count") are exact: a seed whose
count differs reads "changed", a behaviour change rather than a speed-up.
Other per-layer metrics have no bound and are listed for reading only.
Exits 1 if any verdict is "worse" or "changed", 2 if a side has no reports.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reports(directory):
    """(workload, trace) -> list of (seed, {metric: value}), seed-ordered."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            report = json.load(f)
        values = {name: m["value"]
                  for name, m in report["result"]["metrics"].items()}
        runs.setdefault((report["workload"], report["trace"]), []).append(
            (report["seed"], values))
    for key in runs:
        runs[key].sort(key=lambda run: run[0])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(base, new):
    """Seed-matched (base, new) value pairs; index order if no seed matches."""
    by_seed = {}
    for seed, value in base:
        by_seed.setdefault(seed, []).append(value)
    matched = []
    for seed, value in new:
        if by_seed.get(seed):
            matched.append((by_seed[seed].pop(0), value))
    if matched:
        return matched
    return list(zip([v for _, v in base], [v for _, v in new]))


def verdict(base, new, bound, higher_is_better):
    """Verdict of NEW against BASE for one metric; base/new are
    [(seed, value)] lists. Returns a dict of the statistics shown."""
    a = [v for _, v in base]
    b = [v for _, v in new]
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1_a, q3_a = quartiles(a)
    sign = 1.0 if higher_is_better else -1.0
    paired = pairs(base, new)
    won = sum(1 for x, y in paired if sign * (y - x) > 0)
    won_frac = won / len(paired) if paired else 0.0
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = -sign * change
    spread = (q3_a - q1_a) / med_a if med_a else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)

    if (won_frac >= 0.9 and sign * (med_b - med_a) > 0
            and abs(med_b - med_a) > q3_a - q1_a):
        result = "better"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "same"
    return {"base": (med_a, q1_a, q3_a), "new": (med_b,) + quartiles(b),
            "change": change, "won": won_frac, "verdict": result}


def exact_verdict(base, new):
    """Per-seed equality of a deterministic count."""
    paired = pairs(base, new)
    med_a = statistics.median([v for _, v in base])
    med_b = statistics.median([v for _, v in new])
    result = "same" if all(x == y for x, y in paired) else "changed"
    return {"base": (med_a,) + quartiles([v for _, v in base]),
            "new": (med_b,) + quartiles([v for _, v in new]),
            "change": (med_b - med_a) / med_a if med_a else 0.0,
            "won": float("nan"), "verdict": result}


def compare(spec, base_runs, new_runs):
    """Yields (workload, metric, stats) for every metric both sides have."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        base, new = base_runs[key], new_runs[key]
        metrics = per_layer if trace else end_to_end
        for name, m in metrics.items():
            a = [(s, v[name]) for s, v in base if name in v]
            b = [(s, v[name]) for s, v in new if name in v]
            if not a or not b:
                continue
            higher = m["better"] == "higher"
            if not trace:
                stats = verdict(a, b, m["bound"], higher)
            elif m["unit"] == "count":
                stats = exact_verdict(a, b)
            else:
                stats = verdict(a, b, float("inf"), higher)
                stats["verdict"] = "-"
            yield workload, name, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    base_runs, new_runs = load_reports(args.base), load_reports(args.new)
    if not base_runs or not new_runs:
        print("compare.py: no reports in %s" % (
            args.base if not base_runs else args.new), file=sys.stderr)
        return 2

    print("%-10s %-34s %24s %24s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "won", "verdict"))
    failing = 0
    for workload, name, s in compare(spec, base_runs, new_runs):
        print("%-10s %-34s %10.4g [%5.4g, %5.4g] %10.4g [%5.4g, %5.4g] "
              "%+7.2f%% %6.2f  %s" % ((workload, name) + s["base"] + s["new"]
                                      + (100 * s["change"], s["won"],
                                         s["verdict"])))
        if s["verdict"] in ("worse", "changed"):
            failing += 1
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
