#!/usr/bin/env python3
"""Bench-trajectory regression gate for the BENCH_*.json artifacts.

The bench binaries (bench_traffic, bench_sweep, bench_explore) emit machine-readable
reports; this tool diffs a fresh set against the committed baseline so CI
holds the line on the performance trajectory instead of merely archiving
it.

Usage:
  # CI / local gate: fail on regressions against the committed baseline.
  python3 tools/bench_gate.py check --baseline BENCH_baseline.json \
      BENCH_traffic.json BENCH_sweep.json BENCH_explore.json

  # One-command re-baseline after an intentional perf/behaviour change:
  python3 tools/bench_gate.py rebaseline --out BENCH_baseline.json \
      BENCH_traffic.json BENCH_sweep.json BENCH_explore.json

Metric policy (classified by name, see classify()):

  exact          conformance counters and swept frontier/knee positions
                 (committed, violations, shed, delayed, knee rate, broker
                 knee capital, min safe delta, conformance_ok), every
                 explore_* DPOR counter (inequivalent orders, pruned runs,
                 violating orders — deterministic properties of the deal),
                 and the xshard_*/hopchain_* cross-shard counts and price
                 metrics (margins, curve points — the market clears the
                 same way every run). All simulated — any drift is a real
                 behaviour change and must be an intentional re-baseline.
  lower_better   simulated latencies and gas costs: fail when the fresh
                 value exceeds baseline * (1 + tolerance).
  higher_better  simulated throughput (deals/goodput per kilotick): fail
                 when the fresh value drops below baseline * (1 - tol).
  wall           wall-clock rates and times (wall_ms, *_per_sec) and the
                 ratios of such rates (speedup, *_speedup, *scaling_ratio).
                 They depend on the host, which a baseline does not name,
                 so rebaseline leaves them out and check never gates them;
                 the fresh reports still carry them.
  info           everything else: carried in the baseline for reference,
                 never gated.

The default tolerance is 0.15: CI fails on a >15% regression in any gated
throughput/latency metric. Simulated metrics are deterministic for a given
seed, so the gate cannot flap on a noisy runner — if it fires, the code
changed the trajectory.
"""

import argparse
import json
import sys

TOLERANCE = 0.15


def classify(name):
    # Ratios of two wall-clock rates (speedups, big-D scaling) are as
    # host- and load-dependent as the rates themselves.
    if "wall_ms" in name or name.endswith("_per_sec") or \
            name == "speedup" or name.endswith("_speedup") or \
            name.endswith("scaling_ratio"):
        return "wall"
    # DPOR reduction counters (bench_explore): the number of inequivalent
    # orders, pruned re-executions, and violating orders of a fixed cell are
    # properties of the deal, not of a seed or a machine — any drift is a
    # semantic change to the scheduler, the independence relation, or a
    # protocol, and must be an intentional re-baseline.
    if name.startswith("explore_"):
        return "exact"
    # Cross-shard / hop-chain families (bench_traffic): cross-shard deal
    # counts, stale-proof rejections, and every price-chart metric (point
    # counts, min/max margins, the bucketed margin-vs-occupancy curve) are
    # deterministic simulated quantities — exact, like the knee positions.
    # Their latency/goodput/gas metrics fall through to the generic
    # tolerance rules below.
    if name.startswith(("xshard_", "hopchain_")) and \
            "latency" not in name and "goodput" not in name and \
            "gas" not in name:
        return "exact"
    # Epoch-service family (bench_traffic section 9 + --epoch_soak):
    # restore-vs-straight-through parity bits, per-epoch conformance
    # counters, restore counts, and snapshot sizes are all deterministic
    # simulated quantities — exact. Latency/gas metrics fall through to the
    # tolerance rules; wall-clock (checkpoint/restore cycle times) was
    # already classified above.
    if name.startswith("epoch_") and "latency" not in name and \
            "goodput" not in name and "gas" not in name:
        return "exact"
    if name == "conformance_ok" or name.endswith("committed") or \
            name.endswith("violations") or name.endswith("_shed") or \
            name.endswith("_delayed") or name.endswith("knee_rate") or \
            name.endswith("knee_capital") or \
            name.endswith("blocked_decisions") or \
            name.endswith("min_safe_delta"):
        return "exact"
    if "latency" in name or "gas" in name:
        return "lower_better"
    if name.endswith("per_ktick"):
        return "higher_better"
    return "info"


def metric_key(bench, metric):
    labels = metric.get("labels", {})
    return (bench, metric["name"], tuple(sorted(labels.items())))


def load_fresh(paths):
    metrics = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        bench = report.get("bench", path)
        for metric in report.get("metrics", []):
            metrics[metric_key(bench, metric)] = float(metric["value"])
    return metrics


def fmt_key(key):
    bench, name, labels = key
    label_str = ",".join(f"{k}={v}" for k, v in labels)
    return f"{bench}:{name}" + (f"[{label_str}]" if label_str else "")


def rebaseline(args):
    entries = []
    git_rev = "unknown"
    for path in args.files:
        with open(path) as f:
            report = json.load(f)
        git_rev = report.get("git_rev", git_rev)
        bench = report.get("bench", path)
        for metric in report.get("metrics", []):
            if classify(metric["name"]) == "wall":
                continue
            entries.append({
                "bench": bench,
                "name": metric["name"],
                "labels": metric.get("labels", {}),
                "unit": metric.get("unit", ""),
                "value": float(metric["value"]),
            })
    baseline = {
        "schema": 1,
        "comment": "Committed bench baseline. Regenerate with: "
                   "python3 tools/bench_gate.py rebaseline "
                   "--out BENCH_baseline.json BENCH_traffic.json "
                   "BENCH_sweep.json BENCH_explore.json",
        "generated_from_git_rev": git_rev,
        "metrics": entries,
    }
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    gated = sum(1 for e in entries if classify(e["name"]) in
                ("exact", "lower_better", "higher_better"))
    print(f"wrote {args.out}: {len(entries)} metrics "
          f"({gated} gated, rest info; wall-clock metrics left out)")
    return 0


def check(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    fresh = load_fresh(args.files)

    failures = []
    checked = 0
    for entry in baseline.get("metrics", []):
        cls = classify(entry["name"])
        if cls in ("info", "wall"):
            continue
        key = metric_key(entry["bench"], entry)
        base = float(entry["value"])
        if key not in fresh:
            failures.append((key, base, None, "missing from fresh run"))
            continue
        value = fresh[key]
        checked += 1
        if cls == "exact":
            if value != base:
                failures.append((key, base, value, "exact-match metric "
                                 "changed (intentional? re-baseline)"))
        elif cls == "lower_better":
            if value > base * (1.0 + args.tolerance) + 1e-9:
                failures.append((key, base, value,
                                 f"regressed >{args.tolerance:.0%} (higher "
                                 "is worse)"))
        elif cls == "higher_better":
            if value < base * (1.0 - args.tolerance) - 1e-9:
                failures.append((key, base, value,
                                 f"regressed >{args.tolerance:.0%} (lower "
                                 "is worse)"))

    baselined = {metric_key(e["bench"], e)
                 for e in baseline.get("metrics", [])}
    new = [k for k in fresh
           if k not in baselined and classify(k[1]) != "wall"]

    print(f"bench gate: {checked} metrics checked against "
          f"{args.baseline} (tolerance {args.tolerance:.0%})")
    if new:
        print(f"  note: {len(new)} fresh metrics not in the baseline "
              f"(re-baseline to start tracking them), e.g. "
              f"{fmt_key(new[0])}")
    if failures:
        print(f"\nFAILED: {len(failures)} regression(s):")
        for key, base, value, why in failures:
            shown = "absent" if value is None else f"{value:g}"
            print(f"  {fmt_key(key)}: baseline {base:g} -> {shown}  ({why})")
        print("\nIf this change is intentional, re-baseline with:\n"
              "  python3 tools/bench_gate.py rebaseline --out "
              "BENCH_baseline.json " + " ".join(args.files))
        return 1
    print("OK: no regressions against the baseline")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="diff fresh reports vs baseline")
    p_check.add_argument("--baseline", required=True)
    p_check.add_argument("--tolerance", type=float, default=TOLERANCE)
    p_check.add_argument("files", nargs="+")
    p_check.set_defaults(func=check)

    p_re = sub.add_parser("rebaseline", help="write a new baseline")
    p_re.add_argument("--out", required=True)
    p_re.add_argument("files", nargs="+")
    p_re.set_defaults(func=rebaseline)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
