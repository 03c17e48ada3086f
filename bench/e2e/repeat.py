#!/usr/bin/env python3
"""Repeatability check of the end-to-end benchmark on one commit.

    bench/e2e/run.sh --sets=2 --runs=5

Runs every workload --runs times per set, untraced and then traced, with
seeds 1..runs, alternating between the sets run by run. Prints each
end-to-end metric's median and quartiles per set, and its spread: the
distance between the quartiles as a share of the median. Exits 1 when a
run fails, when a spread exceeds the metric's bound in BENCHMARK.json,
when an end-to-end metric's set medians differ by more than its bound, or
when a deterministic per-layer metric differs between two runs of the
same seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Per-layer metrics that repeat exactly for a given seed: work counts and
# synthesis quality. Times never do.
EXACT_UNITS = {"count", "cycles"}
EXACT_NAMES = {"optimize.speedup_geomean", "schedsim.est_err_pct",
               "serve.synth_hit_ratio"}


def run(workload, seed, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if p.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(p.stderr[-3000:])
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    exact = {m["name"] for m in bench["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_NAMES}

    # got[set][workload][trace] = list of (seed, metrics)
    got = [{w: {0: [], 1: []} for w in workloads} for _ in range(args.sets)]
    ok = True
    for seed in range(1, args.runs + 1):
        for s in range(args.sets):
            for w in workloads:
                for trace in (0, 1):
                    m = run(w, seed, trace)
                    print(f"set {s + 1} seed {seed} {w} trace={trace}: "
                          f"{'ok' if m is not None else 'FAILED'}",
                          file=sys.stderr, flush=True)
                    if m is None:
                        ok = False
                    else:
                        got[s][w][trace].append((seed, m))

    for w in workloads:
        print(f"\n{w}: median [q1, q3] (spread) of {args.runs} runs per set")
        for name, bound in bounds.items():
            cells, medians = [], []
            for s in range(args.sets):
                vals = [m[name] for _, m in got[s][w][0]]
                if not vals:
                    continue
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2
                medians.append(q2)
                flag = ""
                if spread > bound:
                    ok, flag = False, " WIDE"
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] ({spread:.1%}"
                             f"{flag})")
            verdict = ""
            if len(medians) == args.sets:
                drift = (max(medians) - min(medians)) / min(medians)
                good = drift <= bound
                ok = ok and good
                verdict = (f"differ {drift:.1%} (bound {bound:.0%}) "
                           f"{'ok' if good else 'TOO FAR'}")
            print(f"  {name:15s} " + "  ".join(cells) + "  " + verdict)
        differ = []
        for name in sorted(exact):
            per_seed = {}
            for s in range(args.sets):
                for seed, m in got[s][w][1]:
                    per_seed.setdefault(seed, set()).add(m[name])
            if any(len(v) > 1 for v in per_seed.values()):
                differ.append(name)
        ok = ok and not differ
        print(f"  deterministic per-layer metrics: "
              f"{'differ: ' + ', '.join(differ) if differ else 'identical'}")
    print("\nrepeatable" if ok else "\nNOT repeatable")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
