#!/usr/bin/env python3
"""Compares the benchmark result sets of two commits.

    python3 pipebench/compare.py <base-results-dir> <change-results-dir>

Each directory holds the records run.py writes (.bench_results/ by default): one
<workload>-s<seed>-t0.json per run. Run at least ten seeds per workload on each side with
identical settings, alternating which side runs first. For every (workload, end-to-end
metric) the tool prints each side's median and quartiles, the share of seed-matched pairs
the change won (ties count for neither side), and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians differ by more
              than the base's own quartile spread
  regressed   the change's median is worse than the base's by more than the metric's bound
  unresolved  a side's quartile spread exceeds the bound, unless every change run beats
              every base run
  unchanged   otherwise: within the bound

  ungated     serve_p99_ms: recorded for reading, never a regression (see README.md)

failed_frac (failed / attempted) gets its own row; any increase is a regression. Bounds and
directions come from BENCHMARK.json. Exit status is 1 when any row regressed.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {seed: record}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], {})[record["provenance"]["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Classifies one (workload, metric) row; `base`/`change` are seed-aligned lists."""
    base_values = [v for v in base if v is not None]
    change_values = [v for v in change if v is not None]
    b1, bm, b3 = quartiles(base_values)
    c1, cm, c3 = quartiles(change_values)
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    worse = sign * (bm - cm) / abs(bm) + 0.0 if bm else 0.0  # + 0.0: no "-0.0%"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    every_better = (min(change_values) > max(base_values) if sign > 0
                    else max(change_values) < min(base_values))
    if share >= 0.9 and abs(cm - bm) > (b3 - b1):
        label = "improved"
    elif bound is None:
        label = "ungated"
    elif worse > bound:
        label = "regressed"
    elif spread > bound and not every_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return (b1, bm, b3), (c1, cm, c3), share, len(pairs), worse, label


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, change = load(args.base), load(args.change)
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics.append(("failed_frac", "lower", 0.0))
    # Recorded but not gated: its run-to-run spread on a shared VM exceeds any bound.
    metrics.append(("serve_p99_ms", "lower", None))

    header = (f"{'workload':18s} {'metric':18s} {'base q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'won':>8s} {'worse':>7s}  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for w in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(set(base.get(w, {})) & set(change.get(w, {})))
        if not seeds:
            print(f"{w:18s} (no seed run on both sides)")
            continue
        for name, better, bound in metrics:
            def series(side):
                out = []
                for s in seeds:
                    r = side[w][s]
                    if name == "failed_frac":
                        out.append(r["failed"] / max(r["attempted"], 1))
                    else:
                        m = r["metrics"].get(name)
                        out.append(m["value"] if m else None)
                return out
            b, c = series(base), series(change)
            if all(v is None for v in b) or all(v is None for v in c):
                continue
            bq, cq, share, n, worse, label = verdict(b, c, better, bound)
            if name == "failed_frac":
                label = "regressed" if cq[1] > bq[1] else "unchanged"
            regressed |= label == "regressed"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{w:18s} {name:18s} {fmt(bq):>32s} {fmt(cq):>32s} "
                  f"{round(share * n)}/{n:<5d} {worse:+7.1%}  {label}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
