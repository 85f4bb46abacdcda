#!/usr/bin/env python3
"""The xdeal benchmark: builds the driver, runs workloads, checks outputs.

  python3 benchmark/run.py --workload bigd --seed 1 --seconds 20 --trace 0
  python3 benchmark/run.py --seed 1            # every workload, in turn
  python3 benchmark/run.py --smoke             # every workload at ~1/20 scale

Each workload runs in its own process (benchmark/xbench.cc) for --seconds.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs the plain driver and then the span-recording one
(xbench_traced) and reports the per-layer metrics. Every run is checked for
correctness, prints a table and a host stamp, writes a report to --out, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The exit code is nonzero if any check fails or nothing could be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("bigd", "contended", "service", "check")
SETUP_SPAWNS = 5
SPAWN_LIMIT_S = 170
CRYPTO = ("crypto.keygen", "crypto.sign", "crypto.verify",
          "crypto.batch_verify", "crypto.sha256")
# The driver's calls, whose spans are roots. RunSweep's calling thread only
# waits for its workers (their spans are roots on their own threads), so its
# self time is idle time: neither engine work nor traced time.
ENGINE_CALLS = ("RunTraffic", "RunEpoch", "Create", "Checkpoint",
                "FromSnapshot", "RunExhaustiveSweep")
IDLE_CALL = "RunSweep"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds both drivers; returns the build dir."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "xbench", "xbench_traced"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return build_dir


def spawn(binary, args):
    """Runs one driver process; returns (parsed JSON line or None, status)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True, timeout=SPAWN_LIMIT_S)
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), proc.returncode


def setup_seconds(binary, workload_args):
    """Median over several spawns of spawn -> driver ready, in seconds."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        start_ns = time.monotonic_ns()
        raw, code = spawn(binary, workload_args + ["--setup-only"])
        if code != 0 or raw is None:
            raise RuntimeError("set-up spawn failed")
        samples.append((raw["ready_ns"] - start_ns) / 1e9)
    return statistics.median(samples), samples


def end_to_end(raw, setup_s):
    return {
        "deals_per_s": statistics.median(raw["deal_rates"]),
        "call_ms_p50": statistics.median(raw["call_ms"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": setup_s,
    }


def unresolved_wraps(binary):
    """Wrapped symbols whose real definition is missing from the binary."""
    out = subprocess.run(["nm", binary], capture_output=True, text=True,
                         check=True).stdout
    defined, wrapped = set(), []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("T", "W"):
            defined.add(parts[2])
            if parts[2].startswith("__wrap_"):
                wrapped.append(parts[2][len("__wrap_"):])
    return sorted(s for s in wrapped if s not in defined)


def layer_totals(trace):
    """Sums the span table over causes: layer -> [calls, total_ns, self_ns]."""
    totals = {}
    for layers in trace["spans"].values():
        for layer, row in layers.items():
            acc = totals.setdefault(layer, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
    return totals


def traced_ns(trace):
    """Wall time covered by spans on all threads: every self time but the
    idle one. Shares are taken of this, not of CPU time, because span times
    are wall times and include any time a thread spent preempted."""
    return sum(self_ns for layers in trace["spans"].values()
               for layer, (_, _, self_ns) in layers.items()
               if layer != IDLE_CALL)


def per_layer(traced, plain, unresolved):
    """Per-layer metrics, per iteration of the traced run."""
    trace = traced["trace"]
    k = traced["iterations"]
    totals = layer_totals(trace)
    span_ns = traced_ns(trace)

    def calls(layer):
        return totals.get(layer, [0, 0, 0])[0] / k

    def self_ms(layer):
        return totals.get(layer, [0, 0, 0])[2] / k / 1e6

    def mean_us(layer):
        n, total_ns, _ = totals.get(layer, [0, 0, 0])
        return total_ns / n / 1e3 if n else 0.0

    def share(layer):
        return totals.get(layer, [0, 0, 0])[2] / span_ns

    counts = traced["counts"]
    events = trace["sim_events"] / k
    batch_calls = totals.get("crypto.batch_verify", [0])[0]
    restore_keygen = (trace["spans"].get("FromSnapshot", {})
                      .get("crypto.keygen", [0])[0]) / k
    executions = counts.get("explore.executions", 0)
    metrics = {
        "crypto.batch_verify.fallback_frac":
            trace["batch_fallbacks"] / batch_calls if batch_calls else 0.0,
        "crypto.sha256.calls": calls("crypto.sha256"),
        "crypto.sha256.self_ms": self_ms("crypto.sha256"),
        "crypto.self_share": sum(share(layer) for layer in CRYPTO),
        "cbc.verify_proof.calls": calls("cbc.verify_proof"),
        "cbc.verify_proof.self_ms": self_ms("cbc.verify_proof"),
        "cbc.decide_proof.calls": calls("cbc.decide_proof"),
        "cbc.decide_proof.self_ms": self_ms("cbc.decide_proof"),
        "cbc.setup_ms": totals.get("cbc.setup", [0, 0, 0])[1] / k / 1e6,
        "sim.events": events,
        "sim.loop_self_us_per_event":
            self_ms("sim.loop") * 1e3 / events if events else 0.0,
        "sim.loop_self_share": share("sim.loop"),
        "chain.submits": calls("chain.submit"),
        "chain.deploys": calls("chain.deploy"),
        "core.checker.calls": calls("core.checker"),
        "core.checker.self_ms": self_ms("core.checker"),
        "core.engine.self_ms": sum(self_ms(call) for call in ENGINE_CALLS),
        "snapshot.restore_keygen_calls": restore_keygen,
        "snapshot.encode_share": share("snapshot.encode"),
        "snapshot.decode_share": share("snapshot.decode"),
        "explore.useful_frac":
            counts.get("explore.orders", 0) / executions if executions else 0.0,
        "trace.overhead_frac":
            (traced["wall_s"] / k) / (plain["wall_s"] / plain["iterations"])
            - 1.0,
        "trace.unresolved_wraps": float(len(unresolved)),
    }
    for op in ("keygen", "sign", "verify", "batch_verify"):
        metrics["crypto.%s.calls" % op] = calls("crypto." + op)
        metrics["crypto.%s.us" % op] = mean_us("crypto." + op)
    for name in ("chain.receipts", "chain.gas", "admission.delayed",
                 "admission.shed", "admission.retries",
                 "broker.blocked_decisions", "broker.portfolio_violations",
                 "snapshot.bytes", "explore.executions", "explore.orders",
                 "explore.sleep_blocked", "sweep.scenarios"):
        metrics[name] = float(counts.get(name, 0))
    return metrics


def git_stamp():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True)
    except OSError:
        return "unknown", None
    if rev.returncode != 0:
        return "unknown", None
    return rev.stdout.strip(), bool(dirty.stdout.strip())


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_stamp(raw, seed):
    rev, dirty = git_stamp()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "flags": raw["build"]["flags"],
        "git_rev": rev,
        "git_dirty": dirty,
        "seed": seed,
        "driver_threads": raw["threads"],
    }


def print_layer_table(trace, k):
    """The span table of a traced run, per iteration, by cause and layer."""
    span_ns = traced_ns(trace)
    print("  %-20s %-20s %12s %12s %12s %7s" % (
        "cause", "layer", "calls/iter", "total ms", "self ms", "share"))
    for cause, layers in sorted(trace["spans"].items()):
        for layer, (n, total_ns, self_ns) in sorted(
                layers.items(), key=lambda kv: -kv[1][2]):
            share = ("%6.2f%%" % (100.0 * self_ns / span_ns)
                     if layer != IDLE_CALL else "      -")
            print("  %-20s %-20s %12.1f %12.2f %12.2f %s" % (
                cause, layer, n / k, total_ns / k / 1e6, self_ns / k / 1e6,
                share))


def run_workload(spec, build_dir, workload, seed, seconds, trace, smoke,
                 out_dir):
    """Runs one workload; prints its table and JSON line; returns success."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    plain_bin = os.path.join(build_dir, "xbench")
    traced_bin = os.path.join(build_dir, "xbench_traced")
    errors = []

    plain, code = spawn(plain_bin, args)
    if plain is None:
        raise RuntimeError("%s produced no result (exit %d)" % (workload, code))
    errors += plain["errors"]
    if code != 0 and not plain["errors"]:
        errors.append("xbench exited %d" % code)
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke,
              "host": host_stamp(plain, seed), "plain": plain}

    if trace:
        traced, code = spawn(traced_bin, args)
        if traced is None:
            raise RuntimeError("xbench_traced produced no result")
        errors += traced["errors"]
        if code != 0 and not traced["errors"]:
            errors.append("xbench_traced exited %d" % code)
        if traced["det"] != plain["det"]:
            errors.append("traced run's deterministic outputs differ: %s vs %s"
                          % (traced["det"], plain["det"]))
        unresolved = unresolved_wraps(traced_bin)
        computed = per_layer(traced, plain, unresolved)
        wanted = spec["per_layer"]
        report["traced"] = traced
        report["unresolved_wraps"] = unresolved
        attempted, failed = traced["attempted"], traced["failed"]
    else:
        setup_s, samples = setup_seconds(plain_bin, args)
        computed = end_to_end(plain, setup_s)
        wanted = spec["end_to_end"]
        report["setup_samples_s"] = samples
        attempted, failed = plain["attempted"], plain["failed"]

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report["result"] = result

    print("== %s  seed=%d  trace=%d  iterations=%d  calls=%d  wall=%.2fs  "
          "cpu=%.2fs" % (workload, seed, trace, plain["iterations"],
                         len(plain["call_ms"]), plain["wall_s"],
                         plain["cpu_s"]))
    for key, value in sorted(report["host"].items()):
        print("  host.%-18s %s" % (key, value))
    for key, value in sorted(plain["det"].items()):
        print("  det.%-24s %s" % (key, value))
    if trace:
        print_layer_table(traced["trace"], traced["iterations"])
        for symbol in report["unresolved_wraps"]:
            print("  unresolved wrap: %s (its layer reads 0)" % symbol)
    for name, m in metrics.items():
        print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("  CHECK FAILED: %s" % e)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s-seed%d-trace%d-%d.json" % (
            workload, seed, trace, time.time_ns()))
        with open(path, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return not errors


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at ~1/20 scale")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "reports"),
                        help="directory for per-run reports ('' = none)")
    args = parser.parse_args()

    try:
        build_dir = build()
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        seconds = 0 if args.smoke else args.seconds
        ok = True
        for workload in workloads:
            ok = run_workload(spec, build_dir, workload, args.seed, seconds,
                              args.trace, args.smoke, args.out) and ok
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
