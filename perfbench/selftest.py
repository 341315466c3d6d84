#!/usr/bin/env python3
"""Self-test of the benchmark at a short run length.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json once with --trace 0 and once
with --trace 1, one repetition each, and fails (exit 1) if:

- the result line is missing or has other keys than the contract's;
- the result is not correct, or an operation failed (run.py marks a
  result incorrect when a required check did not run);
- a metric named in BENCHMARK.json is missing, has no unit, has a unit
  that differs from BENCHMARK.json, or has a value that is not a finite
  number, or an end-to-end metric reads 0;
- a tampered expected-values file is not caught.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run as bench  # noqa: E402

SPEC = os.path.join(bench.ROOT, "BENCHMARK.json")


def result_of(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}, {len(lines)} stdout lines"
    try:
        return json.loads(lines[-1]), "\n".join(lines[:-1])
    except ValueError as e:
        return None, f"last line is not JSON: {e}"


def check_result(res, expected_metrics, end_to_end):
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
        return errors
    if res["correct"] is not True:
        errors.append("result is not correct")
    if res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"attempted {res['attempted']}, failed {res['failed']}")
    got = res["metrics"]
    for m in expected_metrics:
        name, unit = m["name"], m["unit"]
        if name not in got:
            errors.append(f"metric {name} missing")
            continue
        entry = got[name]
        value = entry.get("value")
        if not entry.get("unit"):
            errors.append(f"metric {name} has no unit")
        elif entry["unit"] != unit:
            errors.append(f"metric {name} unit {entry['unit']!r}, BENCHMARK.json says {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"metric {name} value {value!r} is not a finite number")
        elif end_to_end and value <= 0:
            errors.append(f"end-to-end metric {name} reads {value}")
    extra = set(got) - {m["name"] for m in expected_metrics}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def tamper_is_caught():
    """A changed stored value must fail the default-seed run."""
    binary = bench.build()
    if binary is None:
        return ["build failed"]
    work = os.path.join(bench.target_dir(), "perfbench-work")
    os.makedirs(work, exist_ok=True)
    tampered = os.path.join(work, "tampered-expected.json")
    shutil.copyfile(bench.EXPECTED, tampered)
    with open(tampered) as f:
        doc = json.load(f)
    label = sorted(doc["outputs"]["scale10k"])[0]
    doc["outputs"]["scale10k"][label] += " "
    with open(tampered, "w") as f:
        json.dump(doc, f)
    rec = bench.run_worker(binary, "scale10k", bench.DEFAULT_SEED, False,
                           bench.RUN_DEADLINE_S, expected=tampered)
    if "crashed" in rec:
        return [f"tampered run crashed: {rec['crashed']}"]
    if not rec["failed_ops"]:
        return ["a tampered expected value was not caught"]
    return []


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            res, detail = result_of(w["name"], bench.DEFAULT_SEED, trace)
            label = f"{w['name']} --trace {trace}"
            if res is None:
                failures.append(f"{label}: {detail}")
                continue
            errs = check_result(res, metrics, end_to_end=(trace == 0))
            failures.extend(f"{label}: {e}" for e in errs)
            if errs:
                print(detail)
            print(f"{label}: {'FAIL' if errs else 'ok'}", flush=True)
    errs = tamper_is_caught()
    failures.extend(f"tamper: {e}" for e in errs)
    print(f"tampered expected value: {'FAIL' if errs else 'caught'}", flush=True)
    for f in failures:
        print(f"selftest: {f}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
