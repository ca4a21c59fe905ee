#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 pipebench/smoke.py

Runs every workload of BENCHMARK.json briefly (the minimum of two repeats), untraced and
traced, and checks that

  * the last stdout line has exactly the keys correct/attempted/failed/metrics, the run is
    correct with no failures, and every value is a finite number with the declared unit;
  * the metric names equal the end_to_end (untraced) or per_layer (traced) names of
    BENCHMARK.json exactly, with nothing missing and nothing extra;
  * each workload's fixed open-loop arrival rate is the one its "why" states;
  * a deliberately wrong serving reference output makes the correctness check fail.

Exit status 0 means every check passed. Takes a few minutes.
"""
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_results", "smoke")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "pipebench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--results", RESULTS, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def check_result(result, expected, label):
    problems = []
    if result is None:
        return [f"{label}: no result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    got = result.get("metrics", {})
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing:
        problems.append(f"{label}: missing metrics {missing}")
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json {extra}")
    for name in sorted(set(expected) & set(got)):
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            problems.append(f"{label}: {name} is {m}, expected unit {expected[name]}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{label}: {name} value {m['value']}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result, stderr = run(name, trace)
            label = f"{name} trace={trace}"
            found = check_result(result, expected, label)
            if code != 0:
                found.append(f"{label}: exit status {code}\n{stderr[-2000:]}")
            print(f"{'ok  ' if not found else 'FAIL'} {label}", flush=True)
            problems += found
        record_path = os.path.join(RESULTS, f"{name}-s1-t0.json")
        if os.path.exists(record_path):
            with open(record_path) as f:
                rate = json.load(f)["provenance"]["open_rate_per_s"]
            if not re.search(rf"\b{rate:g} req/s\b", workload["why"]):
                problems.append(f"{name}: open-loop rate {rate:g} req/s not stated in its why")

    # The checker must catch a wrong answer: corrupt one reference output.
    code, result, _ = run("serve_socket", 0, "--break-reference")
    caught = (code != 0 and result is not None and result["correct"] is False
              and result["failed"] > 0)
    print(f"{'ok  ' if caught else 'FAIL'} wrong reference output is detected", flush=True)
    if not caught:
        problems.append(f"--break-reference: exit {code}, result {result}")

    for p in problems:
        print("  " + p)
    print("smoke: " + ("PASS" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
