#!/usr/bin/env python3
"""End-to-end benchmark of `ftree stress`, split by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tree-heal --seed 1 --seconds 15 --trace 0

The script builds `ftree` and the traced replay (`perfbench/trace`) from
source into `$CARGO_TARGET_DIR` (default `.bench_build`), then evaluates the
workload on INSTANCES seeded instances: instance i of seed s runs with seed
INSTANCES*s + i.

* Untraced samples run the workload's `ftree stress` command line as a
  child process, cycling through the instances until they add up to
  `--seconds` (at least one sample per instance). Each is timed from spawn
  to exit, with its peak RSS from wait4.
* One traced run per instance, interleaved with the first pass of samples,
  replays the same workload in-process with a span around every layer call
  (see perfbench/trace/src/main.rs).

Every sample and traced run is checked: exit status, the record's
verdicts, identical deterministic figures across samples of one instance
(seeded replay), the traced run's figures against the record of the same
instance (cross-check), and on the tree model Thm 1.1 (degree increase at
most 3). Times are medians; deterministic figures are medians over the
instances. The last stdout line is the JSON result: end-to-end metrics
with `--trace 0`, per-layer metrics with `--trace 1`. Everything else goes
to stderr. WORKLOADS.md beside this file says why each workload exists.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from statistics import median

INSTANCES = 4
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    # The omniscient adversary strikes high-degree nodes first; single
    # thread. Most of the time goes to the planner.
    "tree-heavytail": ["--nodes", "200000", "--deletions", "4000", "--wave", "50",
                       "--planner", "heavy-tail", "--threads", "1"],
    # Half the network is deleted ("up to n rounds"); two threads, so the
    # sharded round engine does real work. Most of the time is heal.
    "tree-heal": ["--nodes", "200000", "--deletions", "100000", "--wave", "1000",
                  "--planner", "random", "--threads", "2"],
    # Forgiving Graph churn with insertions beside deletions and the CLI's
    # default (incremental) stretch engine. Most of the time is setup.
    "graph-churn": ["--model", "graph", "--nodes", "250000", "--events", "2000",
                    "--wave", "50", "--planner", "mixed", "--insert-frac", "0.4",
                    "--threads", "2"],
}

# Record fields that are wall-clock readings, not deterministic figures.
TIMING_KEYS = {"elapsed_secs", "wall_ms", "nodes_per_sec", "msgs_per_sec",
               "events_per_sec", "stretch_wall_ms"}
TREE_VERDICTS = ["balanced", "converged", "connected"]
GRAPH_VERDICTS = TREE_VERDICTS + ["wills_ok", "within_bounds"]
THM_1_1_DEGREE_BOUND = 3

# Per-layer metrics that are span totals (work or check spans of that name).
SPAN_METRICS = ["graph.gen_s", "graph.is_connected_s", "core.engine_new_s", "core.audit_s",
                "core.engine_drop_s", "adversary.plan_s", "sim.heal_s", "sim.check_accounting_s",
                "metrics.tracker_build_s", "metrics.tracker_repair_s", "metrics.stretch_report_s",
                "metrics.tracker_drop_s"]
HEAL_COST_KEYS = ["messages_sent", "messages_delivered", "node_visits", "edge_scans",
                  "heap_bytes", "seeks"]
STRETCH_COST_KEYS = ["node_visits", "edge_scans", "heap_bytes", "seeks"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, target):
    """Builds both binaries; returns their paths or exits non-zero."""
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        log("perfbench: no Cargo.toml here; run from the root of a full checkout")
        sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Not --locked: the trace package's lock file lists the workspace crates
    # it depends on by path, and must follow their dependencies as they change.
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "ftree"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", os.path.join("perfbench", "trace", "Cargo.toml")]):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(1)
    release = os.path.join(target, "release")
    return os.path.join(release, "ftree"), os.path.join(release, "ft-perfbench-trace")


def run_sample(ftree, args, seed, scratch, n):
    """One untraced `ftree stress` run: (wall_s, peak_rss_mb, record|None, error|None)."""
    out = os.path.join(scratch, f"record-{n}.json")
    err_path = os.path.join(scratch, f"stderr-{n}.txt")
    cmd = [ftree, "stress", *args, "--seed", str(seed), "--out", out]
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so.
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as f:
            tail = f.read()[-400:]
        return wall, rss_mb, None, f"exit {proc.returncode}: {tail.strip()}"
    with open(out, encoding="utf-8") as f:
        record = json.load(f)
    os.remove(out)
    return wall, rss_mb, record, None


def run_traced(trace_bin, args, seed):
    """One traced replay: (process wall_s, trace dict|None, error|None)."""
    model = "graph" if "graph" in args else "tree"
    rest = [a for a in args if a not in ("--model", "graph")]
    cmd = [trace_bin, "--model", model, *rest, "--seed", str(seed)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        return wall, None, f"traced exit {done.returncode}: {done.stderr.strip()[-400:]}"
    return wall, json.loads(done.stdout), None


def deterministic(record):
    return {k: v for k, v in record.items() if k not in TIMING_KEYS}


def verdict_failures(record):
    keys = GRAPH_VERDICTS if record.get("bench") == "graph_stress" else TREE_VERDICTS
    return [k for k in keys if record.get(k) is not True]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = ap.parse_args()

    # SIGTERM unwinds like an exception, so the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    # Metric names and units come from BENCHMARK.json, the one list of them.
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)  # no-op when already absolute
    ftree, trace_bin = build(root, target)
    scratch = os.path.join(target, "perfbench-scratch", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        result = measure(opts, spec, ftree, trace_bin, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


def measure(opts, spec, ftree, trace_bin, scratch):
    args = WORKLOADS[opts.workload]
    is_graph = "graph" in args
    seeds = [INSTANCES * opts.seed + i for i in range(INSTANCES)]
    problems = []  # anything that makes the output incorrect
    attempted = failed = 0

    # --- untraced samples, cycling through the instances, with one traced
    # replay per instance interleaved into the first pass, so that slow
    # drift in the host's speed affects both sides alike ----------------
    walls, rss, records, traces = [], [], {s: [] for s in seeds}, {}
    untraced_s = 0.0
    n = 0
    while n < INSTANCES or untraced_s < opts.seconds:
        seed = seeds[n % INSTANCES]
        wall, rss_mb, record, error = run_sample(ftree, args, seed, scratch, n)
        untraced_s += wall
        attempted += 1
        if error is None and verdict_failures(record):
            error = f"false verdicts {verdict_failures(record)}"
        if error is not None:
            failed += 1
            problems.append(f"seed {seed} sample: {error}")
        else:
            walls.append(wall)
            rss.append(rss_mb)
            records[seed].append(record)
        if n < INSTANCES:
            attempted += 1
            wall, trace, error = run_traced(trace_bin, args, seed)
            if error is not None:
                failed += 1
                problems.append(f"seed {seed}: {error}")
            else:
                trace["process_s"] = wall
                traces[seed] = trace
        n += 1

    for seed in seeds:
        recs = records[seed]
        if not recs:
            problems.append(f"seed {seed}: no successful sample")
            continue
        # Seeded replay: every sample of one instance agrees on every figure.
        for r in recs[1:]:
            if deterministic(r) != deterministic(recs[0]):
                diff = sorted(k for k in deterministic(r) if r[k] != recs[0].get(k))
                problems.append(f"seed {seed}: samples disagree on {diff}")
        if seed not in traces:
            continue
        fig = traces[seed]["figures"]
        # Cross-check on every figure both report. Stretch work counters
        # appear in both only when both ran the same stretch engine.
        diff = sorted(k for k in fig if k in recs[0] and fig[k] != recs[0][k])
        if diff:
            problems.append(f"seed {seed}: traced run differs from record on "
                            + ", ".join(f"{k} ({fig[k]} vs {recs[0][k]})" for k in diff))
        if not is_graph:
            if fig["max_degree_increase"] > THM_1_1_DEGREE_BOUND:
                problems.append(f"seed {seed}: Thm 1.1 broken, degree +{fig['max_degree_increase']}")
            if fig["disconnected_pairs"] != 0:
                problems.append(f"seed {seed}: {fig['disconnected_pairs']} pairs disconnected")

    if not walls or len(traces) < INSTANCES or any(not r for r in records.values()):
        for p in problems:
            log("perfbench: FAIL", p)
        sys.exit(1)

    # --- end-to-end metrics ----------------------------------------------
    def per_instance(f):
        return median([f(seed) for seed in seeds])

    def events(rec):
        return rec["deletions"] + rec.get("insertions", 0)

    first = {seed: records[seed][0] for seed in seeds}
    e2e = {
        "wall_s": median(walls),
        "setup_s": per_instance(lambda s: traces[s]["setup_s"]),
        "peak_rss_mb": median(rss),
        "msgs_per_event": per_instance(lambda s: first[s]["total_messages"] / events(first[s])),
        "rounds_per_event": per_instance(lambda s: first[s]["rounds"] / events(first[s])),
        "peak_node_load": per_instance(lambda s: first[s]["peak_per_node_load"]),
        # graph: equal to the record's (cross-checked); tree: from the
        # traced run's post-run check, as the CLI's tree record has none
        "mean_stretch": per_instance(lambda s: traces[s]["figures"]["mean_stretch"]),
    }

    # --- per-layer metrics -----------------------------------------------
    layer = {m: per_instance(lambda s, m=m: traces[s]["work"].get(m, 0.0)
                             + traces[s]["check"].get(m, 0.0))
             for m in SPAN_METRICS}
    layer["adversary.plan_ms_per_wave"] = per_instance(
        lambda s: 1e3 * traces[s]["work"]["adversary.plan_s"] / first[s]["waves"])
    layer["sim.events_per_heal_s"] = per_instance(
        lambda s: events(first[s]) / traces[s]["work"]["sim.heal_s"])
    layer["core.max_degree_increase"] = per_instance(
        lambda s: traces[s]["figures"]["max_degree_increase"])
    layer["sim.rounds"] = per_instance(lambda s: first[s]["rounds"])
    for k in HEAL_COST_KEYS:
        layer[f"sim.{k}"] = per_instance(lambda s, k=k: traces[s]["heal_cost"][k])
    layer["sim.delivered_per_sent"] = per_instance(
        lambda s: traces[s]["heal_cost"]["messages_delivered"] / traces[s]["heal_cost"]["messages_sent"])
    layer["metrics.max_stretch"] = per_instance(lambda s: traces[s]["figures"]["max_stretch"])
    for k in STRETCH_COST_KEYS:
        layer[f"metrics.stretch_{k}"] = per_instance(
            lambda s, k=k: traces[s]["figures"][f"stretch_{k}"])
    work_sum = per_instance(lambda s: sum(traces[s]["work"].values()))
    traced_wall = per_instance(lambda s: traces[s]["process_s"] - traces[s]["check_s"])
    layer["trace.coverage"] = work_sum / e2e["wall_s"]
    layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    layer["trace.unattributed_s"] = e2e["wall_s"] - work_sum

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if set(units) != set(e2e) | set(layer):
        log("perfbench: BENCHMARK.json and run.py disagree on",
            sorted(set(units) ^ (set(e2e) | set(layer))))
        sys.exit(1)
    report(opts, seeds, walls, attempted, failed, e2e, layer, units, traces, problems)
    metrics = layer if opts.trace else e2e
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def report(opts, seeds, walls, attempted, failed, e2e, layer, units, traces, problems):
    """Human-readable summary on stderr."""
    q1, _, q3 = statistics.quantiles(walls, n=4)
    log(f"perfbench {opts.workload}: seed {opts.seed} -> instance seeds {seeds}, "
        f"{os.cpu_count()} cpus")
    log(f"  wall_s median {e2e['wall_s']:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
        f"{len(walls)} samples")
    log(f"  failed_share {failed}/{attempted} = {failed / attempted:.3f}")
    for m, v in e2e.items():
        log(f"  {m:<22} {v:>14.6g} {units[m]}")
    log("  layer spans (median over instances; share of untraced wall_s):")
    some = next(iter(traces.values()))
    for m in SPAN_METRICS:
        log(f"    {m:<28} {layer[m]:>10.4f} s {100 * layer[m] / e2e['wall_s']:6.1f}%"
            + ("  (post-run check)" if m in some["check"] else ""))
    log(f"    {'unattributed':<28} {layer['trace.unattributed_s']:>10.4f} s "
        f"{100 * layer['trace.unattributed_s'] / e2e['wall_s']:6.1f}%")
    check = median(t["check_s"] for t in traces.values())
    log(f"  post-run checks (benchmark only, not in coverage): {check:.4f} s")
    for m in layer:
        if m not in SPAN_METRICS:
            log(f"  {m:<28} {layer[m]:>14.6g} {units[m]}")
    for p in problems:
        log("  FAIL", p)


if __name__ == "__main__":
    main()
