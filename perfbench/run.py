#!/usr/bin/env python3
"""Benchmark of the Bullet' simulator: host time, CPU and memory per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repo root. Builds perfbench_driver twice under .bench_build/
(plain, and -DBULLET_PROFILE=ON from the same sources), then runs the workload
in fresh driver processes until --seconds have passed and prints, as the last
line of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over iterations):
  run_s        wall seconds inside WorkloadExperiment::Run, summed over the
               workload's instances and systems
  setup_s      wall seconds from generated inputs to ready-to-run (topology
               build + experiment construction + AddSession), same sums
  cpu_s        process user+sys CPU seconds spent inside Run
  peak_rss_mb  peak RSS of the driver process (a fresh process per iteration)
--trace 1 alternates plain and profiled iterations and reports the per-layer
metrics: counters and per-system times from the plain build, phase self times
from the profiled one (see PHASE_PARENT), and the tracing overhead between
the two.

Every iteration is checked: each member that did not depart completes before
the deadline, bytes sent cover completions x file bytes, and the digest of the
simulated outputs matches the run's first iteration. A member that fails a
check, or belongs to an iteration that crashed or whose digest differs, counts
toward "failed". The digest is printed so runs of two builds can be compared;
it is never checked against a stored value.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
VARIANT_FLAGS = {"plain": [], "profile": ["-DBULLET_PROFILE=ON"]}

# Registry key -> layer prefix of the per-system metrics.
SYSTEM_LAYERS = {
    "bullet-prime": "core.bullet_prime",
    "bullet": "baselines.bullet",
    "bittorrent": "baselines.bittorrent",
    "splitstream": "baselines.splitstream",
}

# Profiler phase nesting, read from the sources (src/common/profiler.h):
#   event_dispatch    src/sim/event_queue.cc, around every event closure
#   allocator_epoch   src/sim/network.cc; serial engine: inside the tick event;
#                     partitioned engine: at the superstep barrier, outside
#                     any event (Network::TickParallel)
#   water_fill        src/sim/bandwidth_allocator.cc, inside allocator_epoch
#   protocol_logic    Network::DeliverMessage, inside a delivery event
#   request_strategy  BulletPrime/BitTorrent::IssueRequests, called from
#                     message handlers (a few calls come from connection-down
#                     callbacks, which are events but not protocol_logic)
#   path_lookup,      Network::FillPathCache at Connect(), which protocols
#   topology_metrics  call from message handlers (the partitioned engine also
#                     fills caches in MergeStaged)
#   barrier_wait,     sim/engine_parallel.cc and Network::MergeStaged; outside
#   merge             events. barrier_wait is summed over all threads.
# Self time = inclusive time minus the inclusive time of the children listed
# here. The time inside Run() outside every root phase is the event queue's
# own (heap pops, clock advance). event_schedule is a count, not a span.
PHASE_PARENT = {
    "event_dispatch": None,
    "allocator_epoch": "event_dispatch",
    "water_fill": "allocator_epoch",
    "protocol_logic": "event_dispatch",
    "request_strategy": "protocol_logic",
    "path_lookup": "protocol_logic",
    "topology_metrics": "protocol_logic",
    "barrier_wait": None,
    "merge": None,
}
PARALLEL_PHASE_PARENT = dict(PHASE_PARENT, allocator_epoch=None)
RUN_SPAN = "run"

# A driver process still running this long after measuring began is killed
# and counted as crashed, so a hung simulation cannot hold the run past the
# 180 s a benchmark run may take.
ITERATION_DEADLINE_S = 165.0


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def instance_seeds(seed, instances, stride):
    """Seeds of the workload instances one run executes; the first is `seed`."""
    return [(seed + k * stride) % 2**64 for k in range(instances)]


def self_times(inclusive_s, budget_s, parent):
    """Self seconds per phase from inclusive totals and the nesting `parent`.

    `budget_s` is the span that encloses every root phase (Run() wall time,
    times the thread count on the partitioned engine); its self time, keyed
    RUN_SPAN, is the part no root phase covers.
    """
    own = {phase: inclusive_s.get(phase, 0.0) for phase in parent}
    for phase, up in parent.items():
        if up is not None:
            own[up] -= inclusive_s.get(phase, 0.0)
    roots = sum(inclusive_s.get(phase, 0.0) for phase, up in parent.items() if up is None)
    own[RUN_SPAN] = budget_s - roots
    return own


def record_failures(rec, reference_digest):
    """(attempted, failed) member downloads of one successful iteration."""
    attempted = sum(s["receivers"] for s in rec["systems"])
    if rec["digest"] != reference_digest:
        return attempted, attempted
    failed = 0
    for s in rec["systems"]:
        accounted = s["completed"] + s["incomplete"] + s["departed_incomplete"]
        if accounted != s["receivers"] or s["bytes_sent"] < s["completed"] * s["file_bytes"]:
            failed += s["receivers"]
        else:
            failed += s["incomplete"]
    return attempted, failed


def count_failures(records):
    """(attempted, failed) over a run's iterations; crashed ones are None.

    The reference digest is the first successful iteration's. A crashed
    iteration counts as many members as a successful one attempted (1 if none
    succeeded), all failed.
    """
    ok = [r for r in records if r is not None]
    reference = ok[0]["digest"] if ok else None
    per_crash = sum(s["receivers"] for s in ok[0]["systems"]) if ok else 1
    attempted = failed = 0
    for rec in records:
        if rec is None:
            a, f = per_crash, per_crash
        else:
            a, f = record_failures(rec, reference)
        attempted += a
        failed += f
    return attempted, failed


def end_to_end(rec):
    systems = rec["systems"]
    return {
        "run_s": sum(s["run_s"] for s in systems),
        "setup_s": sum(s["topology_build_s"] + s["experiment_setup_s"] for s in systems),
        "cpu_s": rec["cpu_user_s"] + rec["cpu_sys_s"],
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
    }


def plain_layers(rec):
    """Per-layer metrics of one untraced iteration."""
    systems = rec["systems"]
    run_s = sum(s["run_s"] for s in systems)
    events = sum(s["events"] for s in systems)
    members = sum(s["receivers"] + 1 for s in systems)
    cpu = rec["cpu_user_s"] + rec["cpu_sys_s"]
    out = {
        "harness.topology_build_s": sum(s["topology_build_s"] for s in systems),
        "harness.experiment_setup_s": sum(s["experiment_setup_s"] for s in systems),
        "sim.events": float(events),
        "sim.events_per_member": events / members,
        "sim.events_per_s": events / run_s if run_s > 0 else 0.0,
        "sim.allocator_epochs": float(sum(s["allocator_epochs"] for s in systems)),
        "sim.useful_byte_ratio": useful_ratio(systems),
        "topology.route_cache_bytes": float(max(s["route_cache_bytes"] for s in systems)),
        "sim.path_pool_bytes": float(max(s["path_pool_bytes"] for s in systems)),
        "scale.arena_peak_bytes": float(max(s["arena_peak_bytes"] for s in systems)),
        "engine_parallel.sys_cpu_frac": rec["cpu_sys_s"] / cpu if cpu > 0 else 0.0,
    }
    for key, layer in SYSTEM_LAYERS.items():
        mine = [s for s in systems if s["system"] == key]
        out[layer + ".run_s"] = float(sum(s["run_s"] for s in mine))
        out[layer + ".events"] = float(sum(s["events"] for s in mine))
        out[layer + ".allocator_epochs"] = float(sum(s["allocator_epochs"] for s in mine))
        out[layer + ".useful_byte_ratio"] = useful_ratio(mine)
    return out


def useful_ratio(systems):
    """Completions x file bytes / bytes sent; 0 when nothing was sent."""
    sent = sum(s["bytes_sent"] for s in systems)
    useful = sum(s["completed"] * s["file_bytes"] for s in systems)
    return useful / sent if sent > 0 else 0.0


def traced_layers(rec):
    """Per-layer phase metrics of one profiled iteration."""
    totals = {}
    calls = {}
    for s in rec["systems"]:
        for phase, t in s["profile"].items():
            totals[phase] = totals.get(phase, 0.0) + t["ns"] * 1e-9
            calls[phase] = calls.get(phase, 0) + t["count"]
    threads = max(s["threads"] for s in rec["systems"])
    parent = PARALLEL_PHASE_PARENT if threads > 1 else PHASE_PARENT
    budget = sum(s["run_s"] for s in rec["systems"]) * threads
    own = self_times(totals, budget, parent)
    roots = sum(totals.get(p, 0.0) for p, up in parent.items() if up is None)
    epochs = sum(s["allocator_epochs"] for s in rec["systems"])
    return {
        "sim.event_queue.self_s": own[RUN_SPAN],
        "sim.event_dispatch.self_s": own["event_dispatch"],
        "sim.allocator.self_s": own["allocator_epoch"],
        "sim.water_fill_s": totals.get("water_fill", 0.0),
        "sim.allocator.ns_per_epoch": totals.get("allocator_epoch", 0.0) * 1e9 / epochs if epochs else 0.0,
        "core.protocol_logic.self_s": own["protocol_logic"],
        "core.request_strategy_s": totals.get("request_strategy", 0.0),
        "core.request_strategy.calls": float(calls.get("request_strategy", 0)),
        "topology.path_lookup_s": totals.get("path_lookup", 0.0),
        "topology.metrics_s": totals.get("topology_metrics", 0.0),
        "engine_parallel.barrier_wait_s": totals.get("barrier_wait", 0.0),
        "engine_parallel.merge_s": totals.get("merge", 0.0),
        "trace.coverage_frac": roots / budget if budget > 0 else 0.0,
    }


def medians(rows):
    return {k: statistics.median([r[k] for r in rows]) for k in rows[0]}


def build(variant):
    """Configures (once) and builds one driver variant; returns its path."""
    bdir = os.path.join(BUILD_DIR, variant)
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        subprocess.run(cmd + VARIANT_FLAGS[variant], check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_driver", "-j", "4"],
                   check=True, stdout=log, stderr=log)
    return os.path.join(bdir, "perfbench_driver")


def run_driver(driver, workload, seeds, scale, timeout_s):
    """One iteration in a fresh process; None if it crashed or timed out."""
    cmd = [driver, "--workload", workload, "--seeds", ",".join(str(s) for s in seeds),
           "--scale", scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def measure(drivers, workload, seeds, seconds, trace, scale):
    """Runs rounds of iterations for about `seconds`; returns [(variant, record)].

    A round is one plain iteration, followed by one profiled iteration when
    tracing. At least three rounds run (one when tracing); no round starts
    that the last round's length says would end after `seconds`.
    """
    order = ["plain", "profile"] if trace else ["plain"]
    start = time.monotonic()
    deadline = start + ITERATION_DEADLINE_S
    results = []
    rounds = 0
    while True:
        round_start = time.monotonic()
        for variant in order:
            rec = run_driver(drivers[variant], workload, seeds, scale,
                             deadline - time.monotonic())
            results.append((variant, rec))
        rounds += 1
        now = time.monotonic()
        if rounds >= (1 if trace else 3) and now - start + (now - round_start) > seconds:
            return results


def summarize(results, trace):
    """(attempted, failed, metrics, report lines) of one run."""
    records = [rec for _, rec in results]
    attempted, failed = count_failures(records)
    lines = []
    for i, (variant, rec) in enumerate(results):
        if rec is None:
            lines.append("iter %d %-7s CRASHED" % (i, variant))
            continue
        e2e = end_to_end(rec)
        lines.append("iter %d %-7s digest %s run_s %.4f setup_s %.6f cpu_s %.4f peak_rss_mb %.1f"
                     % (i, variant, rec["digest"], e2e["run_s"], e2e["setup_s"], e2e["cpu_s"],
                        e2e["peak_rss_mb"]))
    plain = [rec for variant, rec in results if variant == "plain" and rec is not None]
    profiled = [rec for variant, rec in results if variant == "profile" and rec is not None]
    if not plain or (trace and not profiled):
        return attempted, max(failed, 1), None, lines
    if not trace:
        return attempted, failed, medians([end_to_end(r) for r in plain]), lines
    metrics = medians([plain_layers(r) for r in plain])
    metrics.update(medians([traced_layers(r) for r in profiled]))
    plain_run = statistics.median([end_to_end(r)["run_s"] for r in plain])
    traced_run = statistics.median([end_to_end(r)["run_s"] for r in profiled])
    metrics["trace.overhead_frac"] = traced_run / plain_run - 1.0 if plain_run > 0 else 0.0
    return attempted, failed, metrics, lines


def system_table(rec):
    lines = ["%-13s %10s %10s %12s %8s %8s %14s" % (
        "system", "seed", "run_s", "events", "epochs", "done", "useful_ratio")]
    for s in rec["systems"]:
        lines.append("%-13s %10d %10.4f %12d %8d %4d/%-3d %14.4f" % (
            s["system"], s["seed"], s["run_s"], s["events"], s["allocator_epochs"],
            s["completed"], s["receivers"], useful_ratio([s])))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default_seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    meta = load_workloads()
    if args.workload not in meta["workloads"]:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(sorted(meta["workloads"]))))
    wl = meta["workloads"][args.workload]
    seed = wl["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    seeds = instance_seeds(seed, wl["instances"], meta["instance_seed_stride"])

    try:
        drivers = {variant: build(variant) for variant in VARIANT_FLAGS}
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    results = measure(drivers, args.workload, seeds, args.seconds, args.trace, args.scale)
    attempted, failed, metrics, lines = summarize(results, args.trace)
    print("workload %s seed %d instances %s trace %d" % (args.workload, seed, seeds, args.trace))
    for line in lines:
        print(line)
    first = next((rec for _, rec in results if rec is not None), None)
    if first is not None:
        for line in system_table(first):
            print(line)
    if metrics is None:
        metrics = {}
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for name in units:
        if name in metrics:
            print("%-34s %16.6f %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


def metric_units(kind):
    """Metric name -> unit for one BENCHMARK.json list, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


if __name__ == "__main__":
    sys.exit(main())
