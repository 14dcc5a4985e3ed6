#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs of every workload.

    python3 mfvbench/smoke_test.py

For each workload in BENCHMARK.json it checks that
  * an untraced run emits exactly the end-to-end metrics, each with its unit,
    and reports no failed operation;
  * a traced run emits exactly the per-layer metrics, each with its unit,
    drops no span and writes a Chrome trace-event file;
  * a run that corrupts one sampled answer (--corrupt) is reported as
    incorrect, with the corrupted operation counted as failed.
Exits non-zero at the first violation.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(command), done.returncode, done.stderr))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("FAIL %s: result keys %s" % (workload, sorted(result)))
    return result, done.stdout


def check_metrics(workload, result, specs, label):
    got = result["metrics"]
    want = {spec["name"]: spec["unit"] for spec in specs}
    if set(got) != set(want):
        sys.exit("FAIL %s %s: missing %s, unexpected %s" % (
            workload, label, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        entry = got[name]
        if entry["unit"] != unit or not isinstance(entry["value"], (int, float)):
            sys.exit("FAIL %s %s: %s = %r, want unit %s" % (workload, label, name, entry, unit))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for workload in [w["name"] for w in bench["workloads"]]:
        result, _ = run(workload, 0)
        check_metrics(workload, result, bench["end_to_end"], "untraced")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            sys.exit("FAIL %s: untraced run not clean: %r" % (workload, result))

        result, stdout = run(workload, 1)
        check_metrics(workload, result, bench["per_layer"], "traced")
        if not result["correct"] or result["metrics"]["obs.spans_dropped"]["value"] != 0:
            sys.exit("FAIL %s: traced run not clean: %r" % (workload, result))
        trace_line = [l for l in stdout.splitlines() if l.startswith("RECORD chrome_trace=")]
        if not trace_line:
            sys.exit("FAIL %s: traced run wrote no Chrome trace" % workload)
        with open(trace_line[0].split("=", 1)[1]) as handle:
            events = json.load(handle)["traceEvents"]
        if not events or any(e["ph"] != "X" for e in events):
            sys.exit("FAIL %s: Chrome trace has no complete events" % workload)

        result, _ = run(workload, 0, "--corrupt")
        if result["correct"] or result["failed"] < 1:
            sys.exit("FAIL %s: corrupted answer passed the correctness check" % workload)
        print("ok %s" % workload)
    print("smoke test passed")


if __name__ == "__main__":
    main()
