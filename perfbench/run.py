#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload discover|campaign|service \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (honouring
CARGO_TARGET_DIR), runs the workload in its own process, checks its outputs
and prints a human-readable report followed, on the last line, by one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones of BENCHMARK.json, measured untraced.
With `--trace 1` they are the per-layer ones: the workload runs twice
untraced with the same seed (counters, and which counters repeat exactly)
and once traced (self time per layer from the Chrome trace written to
perfbench/out/), each for a third of the time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import layer_self_times  # noqa: E402

WORKLOADS = ("discover", "campaign", "service")

# Set-up is timed cold, once per process, so each run also starts this
# many set-up-only processes; the minimum over all of them is reported.
SETUP_PROCESSES = 9

# A run must end well inside the driver's per-run limit.
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, *extra):
    cmd = [binary, workload, "--seed", str(seed), "--seconds", f"{seconds:.3f}", *extra]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        die(f"{workload} run timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"{workload} run exited with {done.returncode}")
    result = json.loads(lines[-1])
    if not result["op_ms"] and "--setup-only" not in extra:
        die(f"{workload} run measured nothing")
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def p95(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[94]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(r, setups):
    """The end-to-end metrics of run `r`, whose set-up-only siblings are
    `setups`. Set-up is the fastest of the cold set-ups: the reference
    host is a shared 2-core VM whose neighbours slow a process by a third
    or more at times, with no steal time to show for it, and that only
    ever adds time."""
    return {
        "setup_s": min(s["setup_s"][0] for s in [r] + setups),
        "peak_rss_mb": r["peak_rss_mb"],
        "op_p50_ms": median(r["op_ms"]),
    }


def report_end_to_end(workload, r, setups, metrics):
    """The workload's headline numbers, by name, with sample counts."""
    ops, series = r["op_ms"], r["series"]
    rows = [
        ("setup_s", metrics["setup_s"], "s", 1 + len(setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB", 1),
        ("failed_share", ratio(r["failed"], r["attempted"]), "share", r["attempted"]),
        ("op_p50_ms", metrics["op_p50_ms"], "ms", len(ops)),
        ("op_cpu_ms", r["cpu_s"] * 1e3 / len(ops), "ms", len(ops)),
    ]
    if workload == "discover":
        rows.append(("discover_s", median(ops) / 1e3, "s", len(ops)))
    elif workload == "campaign":
        rows.append(("campaign_s", median(ops) / 1e3, "s", len(ops)))
        cps = series["sweep_cells_per_s"]
        rows.append(("sweep_cells_per_s", median(cps), "1/s", len(cps)))
    else:
        q = series["query_ms"]
        rows += [
            ("ingest_p50_ms", median(ops), "ms", len(ops)),
            ("ingest_p95_ms", p95(ops), "ms", len(ops)),
            ("query_p50_ms", median(q), "ms", len(q)),
            ("query_p95_ms", p95(q), "ms", len(q)),
            ("service.gen_lag_max_ms", r["rounds"][0]["service.gen_lag_max_ms"], "ms", 1),
            ("service.probe_queries_per_s",
             r["rounds"][0]["service.probe_queries"] / r["window_s"], "1/s", 1),
        ]
    print(f"{workload}: {r['window_s']:.1f} s measured")
    for name, value, unit, n in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<6} n={n}")


def per_layer(workload, a, b, c, trace_path, spec):
    """Per-layer metrics from untraced runs `a`, `b` and traced run `c`."""
    def med(key):
        return median([rd.get(key, 0.0) for rd in a["rounds"]])

    def total_c(key):
        return sum(rd.get(key, 0.0) for rd in c["rounds"])

    values = {name: med(name) for name in spec}
    values["symvm.busy_share"] = ratio(med("symvm.busy_s"), med("symvm.capacity_s"))
    values["solver.shared_hit_ratio"] = ratio(med("solver.shared_hits"), med("solver.shared_lookups"))
    values["replay.mean_prefix_depth"] = ratio(med("replay.prefix_depth_sum"), med("replay.plans"))
    values["sweep.cache_hit_ratio"] = ratio(med("sweep.cache_hits"), med("sweep.lookups"))
    values["sweep.cells_per_s"] = median(a["series"].get("sweep_cells_per_s", []))
    if workload == "service":
        q = a["series"]["query_ms"]
        values["service.ingest_p95_ms"] = p95(a["op_ms"])
        values["service.query_p50_ms"] = median(q)
        values["service.query_p95_ms"] = p95(q)
    values["op.wall_p50_ms"] = median(a["op_ms"])
    values["op.cpu_ms"] = a["cpu_s"] * 1e3 / len(a["op_ms"])
    values["obs.trace_overhead_share"] = median(c["op_ms"]) / median(a["op_ms"]) - 1

    with open(trace_path) as f:
        self_s = layer_self_times(json.load(f)["traceEvents"])
    # The solver and the proof checker have no spans of their own; their
    # time comes from the stats the entry points return, and it was spent
    # inside symvm's spans.
    self_s["solver"] = total_c("solver.solve_s")
    self_s["proofcheck"] = total_c("proofcheck.audit_s")
    self_s["symvm"] = max(0.0, self_s.get("symvm", 0.0) - self_s["solver"] - self_s["proofcheck"])
    per_op = 1e3 / len(c["op_ms"])
    for layer in ("core", "symvm", "solver", "proofcheck", "replay", "sweep", "fleetd"):
        values[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * per_op

    # A counter is exact when every round of both same-seed runs repeated it.
    classes = {}
    for name, unit in spec.items():
        if unit == "count":
            seen = {rd.get(name, 0.0) for rd in a["rounds"] + b["rounds"]}
            classes[name] = "exact" if len(seen) == 1 else "schedule-dependent"

    print(f"{workload}: layers (self time per op over {len(c['op_ms'])} traced ops, "
          f"trace {trace_path}; counters are medians over {len(a['rounds'])} round(s), "
          "the service's round being its whole window)")
    for layer in ("core", "symvm", "solver", "proofcheck", "replay", "sweep", "fleetd", "bench"):
        names = [n for n in spec if n.startswith(layer + ".") and not n.endswith(".self_ms")]
        if not self_s.get(layer) and not any(values[n] for n in names):
            print(f"  {layer:<11} not exercised")
            continue
        own = self_s.get(layer, 0.0) * per_op
        # Counters without time: this entry point returns no timing for it.
        print(f"  {layer:<11} self " + (f"{own:>10.3f} ms/op" if own else "       n/a"))
        for name in names:
            print(f"      {name:<28} {values[name]:>14.6g} {classes.get(name, '')}")
    for name in spec:
        if name.startswith(("op.", "obs.")) or (workload == "service" and name.startswith("service.")):
            print(f"  {name:<34} {values[name]:>14.6g}")
    return {name: values[name] for name in spec}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
    except OSError as e:
        die(f"cannot read BENCHMARK.json: {e}")
    binary = build()

    if args.trace == 0:
        setups = [
            run_once(binary, args.workload, args.seed, args.seconds, "--setup-only")
            for _ in range(SETUP_PROCESSES)
        ]
        run = run_once(binary, args.workload, args.seed, args.seconds)
        measured = end_to_end(run, setups)
        report_end_to_end(args.workload, run, setups, measured)
        spec = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        # Set-up-only processes run the reference round's checks too.
        runs = [run] + setups
    else:
        third = args.seconds / 3
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}.json")
        runs = [
            run_once(binary, args.workload, args.seed, third),
            run_once(binary, args.workload, args.seed, third),
            run_once(binary, args.workload, args.seed, third, "--trace-out", trace_path),
        ]
        spec = {m["name"]: m["unit"] for m in bench["per_layer"]}
        measured = per_layer(args.workload, *runs, trace_path, spec)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    invalid = [why for r in runs for why in r["invalid"]]
    for r in runs:
        for why in r["failures"]:
            print(f"  FAILED: {why}")
    for why in invalid:
        print(f"  INVALID: {why}")
    result = {
        "correct": failed == 0 and not invalid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit} for name, unit in spec.items()
        },
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
