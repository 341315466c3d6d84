#!/usr/bin/env python3
"""End-to-end benchmark of the LOCKSS attrition simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload scale10k|attack-sweep|record-analyze \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` worker (a package of its own under perfbench/, built
against the repository's crates into $CARGO_TARGET_DIR, default
.bench_build), then runs repetitions of the workload for about `--seconds`
seconds, one fresh worker process per repetition so that each peak-RSS
reading belongs to that repetition alone. Every repetition checks its
outputs (see perfbench/README.md). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

--bless runs the default seed once per workload and stores its outputs in
perfbench/expected.json (the values later runs are checked against).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("scale10k", "attack-sweep", "record-analyze")
DEFAULT_SEED = 1
# A run must end within this many seconds of starting (build excluded).
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "replica_days_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "experiments.registry.load_s": "s",
    "core.world.build_s": "s",
    "sim.engine.alloc_s": "s",
    "core.world.start_s": "s",
    "core.reputation.entries": "count",
    "core.reflist.entries": "count",
    "core.poller.live_polls": "count",
    "core.voter.sessions": "count",
    "sim.engine.busy_s": "s",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.arena_high_water": "count",
    "sim.engine.queued_at_horizon": "count",
    "sim.engine.day_ms_p50": "ms",
    "sim.engine.day_ms_p95": "ms",
    "sim.engine.day_samples": "count",
    "core.poller.polls_started": "count",
    "core.poller.polls_concluded": "count",
    "core.poller.win_ratio": "ratio",
    "net.msgs_sent": "count",
    "net.msgs_suppressed": "count",
    "core.admission.invitations": "count",
    "core.admission.admit_ratio": "ratio",
    "core.admission.refused": "count",
    "core.voter.votes": "count",
    "storage.damage_events": "count",
    "storage.repairs_requested": "count",
    "storage.repairs_applied": "count",
    "adversary.actions": "count",
    "adversary.compromises": "count",
    "effort.loyal_cpu_s": "sim-s",
    "effort.adversary_cpu_s": "sim-s",
    "metrics.summarize_s": "s",
    "experiments.sweep.busy_s": "s",
    "experiments.sweep.parallel_efficiency": "ratio",
    "experiments.sweep.checkpoint_bytes": "bytes",
    "record_s": "s",
    "trace_bytes_per_event": "bytes",
    "analyze_events_per_s": "1/s",
    "replay_s": "s",
    "trace.record.overhead_pct": "%",
    "trace.seal_s": "s",
    "trace.events": "count",
    "trace.blocks": "count",
    "trace.bytes": "bytes",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.stats_s": "s",
    "crypto.sha256_mib_per_s": "MiB/s",
    "trace.replay.events_matched": "count",
    "trace.replay.divergences": "count",
    "bench.check_s": "s",
    "bench.unattributed_pct": "%",
    "bench.trace_overhead_pct": "%",
    "failed_share": "ratio",
}

# Checks that must run at least once in every repetition; a repetition
# missing one is incorrect even if nothing failed.
COMMON_CHECKS = ["polls_concluded_le_started", "poll_votes_count_is_concluded"]
WORKLOAD_CHECKS = {
    "scale10k": [],
    "attack-sweep": ["sweep_seed_completed"],
    "record-analyze": [
        "trace_readback_identical",
        "stats_events_match",
        "counters_match_trace_stats",
        "replay_zero_divergence",
    ],
}
TRACED_CHECKS = {
    "scale10k": ["span_coverage", "day_slicing_identical"],
    "attack-sweep": ["span_coverage", "day_slicing_identical"],
    "record-analyze": ["span_coverage", "day_slicing_identical",
                       "recording_does_not_perturb"],
}


def required_checks(workload, seed, traced):
    req = COMMON_CHECKS + WORKLOAD_CHECKS[workload]
    if seed == DEFAULT_SEED:
        req = req + ["expected_output"]
    if traced:
        req = req + TRACED_CHECKS[workload]
    return req


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the worker; returns its path, or None if the build failed."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if proc.returncode != 0:
        log(f"perfbench: build failed with exit code {proc.returncode}")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_worker(binary, workload, seed, traced, timeout, expected=EXPECTED):
    """One repetition in a fresh process; returns its parsed record, or a
    record describing the crash."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--expected", expected,
           "--work-dir", os.path.join(target_dir(), "perfbench-work")]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(timeout, 1.0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        why = f"worker exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        why = f"worker exceeded {timeout:.0f} s and was killed"
    except (OSError, ValueError) as e:
        why = f"worker failed: {e}"
    return {"crashed": why, "traced": traced}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_reps(binary, workload, seed, seconds, trace):
    """Repetitions for about `seconds` seconds: untraced ones, or
    untraced/traced pairs (alternating which runs first) with --trace 1."""
    reps = []
    durations = []
    start = time.monotonic()
    pair = 0
    while True:
        t = time.monotonic()
        modes = [False] if not trace else ([False, True] if pair % 2 == 0 else [True, False])
        for traced in modes:
            left = RUN_DEADLINE_S - (time.monotonic() - start)
            reps.append(run_worker(binary, workload, seed, traced, left))
        pair += 1
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if any("crashed" in r for r in reps):
            break
        if elapsed + median(durations) > seconds:
            break
        if elapsed + 1.5 * max(durations) > RUN_DEADLINE_S:
            break
    return reps


def account(reps, workload, seed):
    """Attempted/failed operations, failure messages and missing checks."""
    attempted = failed = 0
    problems = []
    plain_outputs = [r["outputs"] for r in reps if "crashed" not in r and not r["traced"]]
    for r in reps:
        if "crashed" in r:
            attempted += 1
            failed += 1
            problems.append(r["crashed"])
            continue
        failed_ops = set(r["failed_ops"])
        checks = dict(r["checks"])
        if r["traced"]:
            # Slicing run_until by day must leave every output identical
            # to the single-call run of the same seed.
            checks["day_slicing_identical"] = 0
            for label, text in r["outputs"].items():
                for plain in plain_outputs:
                    checks["day_slicing_identical"] += 1
                    if plain.get(label) != text:
                        failed_ops.update(r["ops"])
                        problems.append(f"{label}: traced output differs from untraced")
            r["checks"] = checks
        attempted += len(r["ops"])
        failed += len(failed_ops)
        problems.extend(r["failures"])
        for name in required_checks(workload, seed, r["traced"]):
            if checks.get(name, 0) < 1:
                problems.append(f"check {name} did not run")
    return attempted, failed, problems


def end_to_end(reps):
    ok = [r for r in reps if "crashed" not in r and not r["traced"]]
    return {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in ok]),
        "replica_days_per_s": median([r["replica_days"] / r["sim_s"] for r in ok]),
        "peak_rss_mib": median([r["peak_rss_kb"] / 1024.0 for r in ok]),
    }


def per_layer(reps, attempted, failed):
    traced = [r for r in reps if "crashed" not in r and r["traced"]]
    plain = [r for r in reps if "crashed" not in r and not r["traced"]]
    values = {}
    for name in PER_LAYER:
        xs = [r["layers"][name] for r in traced if r["layers"].get(name) is not None]
        values[name] = median(xs)
    plain_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    values["bench.trace_overhead_pct"] = (
        (traced_wall / plain_wall - 1.0) * 100.0 if plain_wall > 0 else 0.0)
    values["failed_share"] = failed / attempted if attempted else 1.0
    return values


def bless(binary):
    doc = {"format": "perfbench-expected-v1", "seed": DEFAULT_SEED, "outputs": {}}
    for workload in WORKLOADS:
        rec = run_worker(binary, workload, DEFAULT_SEED, False, RUN_DEADLINE_S,
                         expected=os.devnull)
        if "crashed" in rec:
            log(f"perfbench: {workload}: {rec['crashed']}")
            return 1
        doc["outputs"][workload] = rec["outputs"]
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"perfbench: wrote {EXPECTED}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()
    if not args.bless and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.bless:
        return bless(binary)

    reps = run_reps(binary, args.workload, args.seed, args.seconds, args.trace)
    attempted, failed, problems = account(reps, args.workload, args.seed)
    if args.trace:
        values, units = per_layer(reps, attempted, failed), PER_LAYER
    else:
        values, units = end_to_end(reps), END_TO_END

    for r in reps:
        if "crashed" in r:
            print(f"repetition crashed: {r['crashed']}")
        else:
            mode = "traced" if r["traced"] else "untraced"
            print(f"repetition {mode}: wall {r['wall_s']:.3f} s, "
                  f"{len(r['ops'])} ops, {len(r['failed_ops'])} failed, "
                  f"checks {json.dumps(r['checks'], sort_keys=True)}")
    for p in problems:
        print(f"problem: {p}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
