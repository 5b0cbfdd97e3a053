#!/usr/bin/env python3
"""Steadiness check of the repo benchmark: runs each workload repeatedly and
prints, per end-to-end metric, the median and the interquartile range as a
share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py                      # 2 seeds x 3 repeats
    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 --repeats 1

Run from the repository root. A spread above a third of its bound is
flagged: such a metric cannot tell a regression of its bound from noise.
`setup_s` is reported but not flagged (its bound only limits the drift of
its median between two sets of runs). Per-run results go to --out as JSON
lines when given.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"steadiness: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", nargs="*", type=int, default=[1, 2])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    flagged = 0
    for workload in workloads:
        values = {}
        failures = 0
        for repeat in range(args.repeats):
            for seed in args.seeds:
                result = run_once(bench["command"], workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    failures += 1
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                if out:
                    out.write(json.dumps({"workload": workload, "seed": seed, "repeat": repeat, **result}) + "\n")
                    out.flush()
        print(f"{workload}: {args.repeats} x seeds {args.seeds}, {failures} runs incorrect or with failures")
        for name, vs in values.items():
            spread = stats.spread(vs)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- spread above bound/3"
                flagged += 1
            print(f"  {name:20s} median {stats.median(vs):14.6g}  spread {spread:7.2%}  bound {bound}{flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
