#!/usr/bin/env python3
"""Run every workload several times and write an aggregate result file.

Run from the repository root:

    python3 bench/e2e/collect.py --runs 10 --traced 1 --out bench/e2e/BASELINE.json

Every BENCHMARK.json workload gets --runs untraced runs (seeds seed0,
seed0+1, ...) and --traced traced runs on further seeds, each measuring
run_seconds; seeds are the outer loop, so each workload's runs spread
over the whole collection. For every end-to-end metric the file holds
the per-run values, their median, quartiles and IQR as a share of the
median (statistics.quantiles, n=4), with the unit, direction and bound
from BENCHMARK.json; the traced run adds the per-layer metrics. Every
run's host steal share is kept beside it. `hima_e2e --compare BASE.json
NEW.json` reads two such files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run_once(workload, seed, seconds, trace, out_path):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"collect.py: {' '.join(cmd)} exited {proc.returncode}")
    with open(out_path) as f:
        return json.load(f)


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    target = os.environ.get("CARGO_TARGET_DIR")
    results_dir = os.path.join(
        os.path.join(target, "e2e") if target else "build-e2e", "collect")
    os.makedirs(results_dir, exist_ok=True)
    untraced = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.runs + args.traced):
        seed = args.seed0 + i
        for w in workloads:
            trace = i >= args.runs
            result = run_once(w, seed, seconds, trace,
                              os.path.join(results_dir, f"{w}_{seed}.json"))
            if not result["correct"] or result["failed"]:
                sys.exit(f"collect.py: {w} seed {seed} failed its check")
            (traced if trace else untraced)[w].append(result)
            print(f"{w:16s} seed {seed:3d} {'traced' if trace else '':6s} "
                  f"steal {result['context']['host_steal_share']:.3f}",
                  file=sys.stderr)

    aggregate = {"schema": "hima_e2e.aggregate/1", "seconds": seconds,
                 "runs": args.runs, "workloads": {}}
    print(f"{'workload':16s} {'metric':22s} {'median':>12s} {'iqr':>7s} "
          f"{'bound':>6s} {'iqr/bound':>9s}")
    for w in workloads:
        runs = untraced[w]
        aggregate["git_sha"] = runs[0]["context"]["git_sha"]
        aggregate["build_type"] = runs[0]["context"]["build_type"]
        aggregate["hardware_threads"] = runs[0]["context"]["hardware_threads"]
        steal = [r["context"]["host_steal_share"] for r in runs]
        entry = {"seeds": [r["seed"] for r in runs], "steal_share": steal,
                 "steal_share_median": statistics.median(steal),
                 "loadavg": [r["context"]["loadavg"] for r in runs],
                 "end_to_end": {}}
        for name, meta in bounds.items():
            values = [r["end_to_end"][name]["value"] for r in runs]
            summary = summarize(values)
            entry["end_to_end"][name] = {
                "unit": meta["unit"], "better": meta["better"],
                "bound": meta["bound"], **summary}
            print(f"{w:16s} {name:22s} {summary['median']:12.4g} "
                  f"{100 * summary['iqr_share']:6.1f}% "
                  f"{100 * meta['bound']:5.0f}% "
                  f"{summary['iqr_share'] / meta['bound']:9.2f}")
        if traced[w]:
            t = traced[w][0]
            entry["traced"] = {
                "seed": t["seed"],
                "steal_share": t["context"]["host_steal_share"],
                "per_layer": t["per_layer"],
                "extra": t["extra"],
            }
        entry["extra"] = {name: summarize([r["extra"][name]["value"] for r in runs])
                          for name in runs[0]["extra"]}
        aggregate["workloads"][w] = entry

    with open(args.out, "w") as f:
        json.dump(aggregate, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
