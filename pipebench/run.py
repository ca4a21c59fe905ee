#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the library sources and
the pipebench driver into $CARGO_TARGET_DIR (default .bench_build/); later runs rebuild
only what changed. The driver then runs the workload in its own process with a fixed
kernel-thread budget and a clean environment, and this script

  * prints one human-readable line per metric (value, median, upper percentile, sample
    count),
  * writes the full result with provenance to .bench_results/<workload>-s<seed>-t<trace>.json
    (the input of compare.py),
  * prints as its last stdout line the result object
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

It exits non-zero when the build fails, the run fails, or a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Kernel threads in the whole process. The trainer and server split it evenly across their
# stage workers (4 stages x 1, 2 interleaved workers x 2, 3 serving stages x 1 plus the
# traffic generator), so busy threads stay within four cores.
KERNEL_THREADS = 4
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"pipebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "pipebench")


def build():
    """Configures (once) and builds the driver; returns its path or None on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log_file:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log_file, stderr=subprocess.STDOUT) != 0:
                # A failed configure must not leave a cache that skips configuring next time.
                cache = os.path.join(out, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log(f"build failed: {' '.join(step)} (log: {log_path})")
                return None
    return os.path.join(out, "pipebench")


def clean_env():
    """The environment of the driver: no PIPEDREAM_* knob except the thread budget."""
    env = dict(os.environ)
    stray = sorted(k for k in env if k.startswith("PIPEDREAM_"))
    if stray:
        log("cleared environment variables that would change what is measured: " + ", ".join(stray))
    for k in stray:
        del env[k]
    env["PIPEDREAM_NUM_THREADS"] = str(KERNEL_THREADS)
    return env, stray


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "pipebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the repository rooted here; "unknown" in a checkout that is not one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        return out[1]
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--results", default=os.path.join(ROOT, ".bench_results"),
                        help="directory for the full result records")
    parser.add_argument("--break-reference", action="store_true",
                        help="corrupt one serving reference output (checker self-test)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    env, stray = clean_env()
    os.makedirs(args.results, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(args.results, stem + ".trace.json")]
    if args.break_reference:
        cmd.append("--break-reference")
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"driver exited {proc.returncode} without a result")
        return 3

    record["provenance"].update(
        git_sha=git_sha(), source_digest=source_digest(), seed=args.seed,
        cleared_env=stray, wall_s=round(time.time() - started, 3))
    with open(os.path.join(args.results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} repeats={record['repeats']} "
          f"sha={prov['git_sha'][:12]} src={prov['source_digest']} nproc={prov['nproc']} "
          f"isa={prov['simd_isa']} kernels={prov['kernel_variant']} build={prov['build_type']} "
          f"transport={prov['transport']}")
    for name, m in sorted(record["metrics"].items()):
        print(f"{name:44s} {m['value']:14.6g} {m['unit']:10s} median={m['median']:.6g} "
              f"p{round(m['upper_q'] * 100)}={m['upper']:.6g} n={m['count']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_frac':44s} {failed / max(attempted, 1):14.6g} {'ratio':10s} "
          f"failed={failed} attempted={attempted} correct={record['correct']}")
    # The result line carries the metrics BENCHMARK.json gates; the record keeps the rest
    # (serve_p99_ms) for compare.py.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = {m["name"] for m in json.load(f)["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": bool(record["correct"]) and proc.returncode == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in sorted(record["metrics"].items()) if name in listed},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
