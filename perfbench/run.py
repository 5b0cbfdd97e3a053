#!/usr/bin/env python3
"""Repo benchmark: builds the REMO benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (see perfbench/README.md).
Lines before it, each starting with '#', give the run's fingerprint, every
metric with its sample count, and the traced run's self time per span.
"""

import argparse
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("plan-cold", "churn-federated", "ingest-steady")
# plan-cold plans too few times for any tail percentile, so its tail is the
# mean of its slowest plans (this share of them, at least one).
SLOWEST_SHARE = 0.3
# ingest-steady's tail: replan epochs apply 1/32 of its batches, the ones
# that wait longest, so p98 lies among them (README, "Shape of ingest-steady").
INGEST_TAIL_Q = 0.98
LAYERS = ("bench", "wait", "task", "partition", "tree", "planner", "core", "federation", "service")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    src = os.path.join(root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "--target", "remo_perfbench", "-j", jobs])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "remo_perfbench")


def samples(raw, name, scale=1.0):
    return [v * scale for v in raw["samples"].get(name, [])]


def p(raw, name, q, scale=1.0):
    """(quantile, n, note) of a raw sample series; (0, 0) when the workload
    has none. The note flags a tail percentile the sample cannot support."""
    vs = samples(raw, name, scale)
    if not vs:
        return 0.0, 0
    if q == 0.5:
        return stats.median(vs), len(vs)
    note = "" if stats.supported(len(vs), q) else f"fewer than {stats.MIN_BEYOND} samples beyond p{q * 100:g}"
    return stats.quantile(vs, q), len(vs), note


def value(raw, name):
    return (raw["values"].get(name, 0.0), 1)


def latency(raw, workload):
    """(p50, tail, sample count, tail note) of the workload's operation
    latency, in ms."""
    if workload == "ingest-steady":
        pairs = raw["weighted"]["latency_ms"]
        lat = [float(v) for v, _ in pairs]
        w = [wt for _, wt in pairs]
        n = stats.count(lat, w)
        if not stats.supported(n, INGEST_TAIL_Q):
            raise SystemExit(f"perfbench: {n:.0f} samples cannot support p{INGEST_TAIL_Q * 100:g}")
        return (stats.median(lat, w), stats.quantile(lat, INGEST_TAIL_Q, w), n,
                f"p{INGEST_TAIL_Q * 100:g} operation latency")
    lat = raw["samples"]["latency_ms"]
    if workload == "plan-cold":
        k = max(1, math.ceil(SLOWEST_SHARE * len(lat)))
        return (stats.median(lat), stats.mean_of_slowest(lat, SLOWEST_SHARE), len(lat),
                f"mean of the slowest {k} plans")
    if not stats.supported(len(lat), 0.90):
        raise SystemExit(f"perfbench: {len(lat)} samples cannot support p90")
    return stats.median(lat), stats.quantile(lat, 0.90), len(lat), "p90 operation latency"


def end_to_end(raw, workload):
    out = {}
    p50, tail, n, tail_note = latency(raw, workload)
    out["setup_s"] = ("s", *p(raw, "setup_s", 0.5), "median of the run's set-ups")
    out["latency_ms_p50"] = ("ms", p50, n, "median operation latency")
    out["latency_ms_tail"] = ("ms", tail, n, tail_note)
    lat = raw["samples"].get("latency_ms", [])
    if workload == "plan-cold":
        out["throughput_per_s"] = ("1/s", len(lat) / (sum(lat) / 1e3), len(lat), "plans per second of planning")
    else:
        over = "10-epoch blocks" if workload == "churn-federated" else "closed-loop epochs without a replan"
        out["throughput_per_s"] = ("1/s", *p(raw, "throughput_per_s", 0.5), f"median over {over}")
    out["collected_pairs"] = ("pairs", *value(raw, "collected_pairs"), "exact")
    out["message_volume"] = ("cost", *value(raw, "message_volume"), "exact")
    out["peak_rss_mb"] = ("MB", *value(raw, "peak_rss_mb"), "getrusage max RSS at the end of the timed phase")
    return out


def per_layer(raw):
    out = {}
    ms, us = 1e3, 1e6

    def ratio(num, den):
        return sum(samples(raw, num)) / max(sum(samples(raw, den)), 1e-12)

    out["service.submit_us_p50"] = ("us", *p(raw, "service.submit_s", 0.5, us))
    out["service.submit_us_p99"] = ("us", *p(raw, "service.submit_s", 0.99, us))
    out["service.epoch_ms_p50"] = ("ms", *p(raw, "service.epoch_s", 0.5, ms))
    out["service.replan_epoch_ms_p50"] = ("ms", *p(raw, "service.replan_epoch_s", 0.5, ms))
    out["service.generator_lag_ms_p99"] = ("ms", *p(raw, "service.generator_lag_s", 0.99, ms))
    for name, unit in (("service.bus_depth_peak", "count"), ("service.values_shed", "count"),
                       ("service.backlog_epochs_max", "epochs"), ("service.utilisation", "ratio")):
        out[name] = (unit, *value(raw, name))
    out["federation.mutate_us_p50"] = ("us", *p(raw, "federation.mutate_s", 0.5, us))
    out["federation.merge_ms_p50"] = ("ms", *p(raw, "federation.merge_s", 0.5, ms))
    out["core.shard_replan_ms_max_p50"] = ("ms", *p(raw, "core.shard_replan_max_s", 0.5, ms))
    out["core.shard_replan_ms_sum_p50"] = ("ms", *p(raw, "core.shard_replan_sum_s", 0.5, ms))
    dirty = samples(raw, "core.shards_dirty")
    out["core.shards_dirty_mean"] = ("count", sum(dirty) / len(dirty) if dirty else 0.0, len(dirty))
    for name, unit in (("adapt.pairs_changed_per_replan", "pairs"), ("adapt.messages_per_replan", "msgs"),
                       ("adapt.adaptation_messages", "msgs")):
        out[name] = (unit, *value(raw, name))
    for name, unit in (("planner.iterations", "count"), ("planner.commit_ratio", "ratio"),
                       ("planner.cpu_per_wall", "ratio")):
        out[name] = (unit, *p(raw, name, 0.5))
    for name, unit in (("planner.evaluations", "count"), ("planner.cache_hit_ratio", "ratio"),
                       ("planner.cache_invalidated", "count")):
        out[name] = (unit, *(p(raw, name, 0.5) if name in raw["samples"] else value(raw, name)))
    out["planner.build_full_ms"] = ("ms", *p(raw, "planner.build_full_s", 0.5, ms))
    out["planner.improve_ms_p50"] = ("ms", *p(raw, "planner.improve_s", 0.5, ms))
    out["planner.evaluate_ms_p50"] = ("ms", *p(raw, "planner.evaluate_s", 0.5, ms))
    out["partition.rank_ms_p50"] = ("ms", *p(raw, "partition.rank_s", 0.5, ms))
    out["partition.rank_share"] = ("ratio", ratio("partition.rank_s", "planner.improve_s"),
                                   len(samples(raw, "partition.rank_s")))
    out["tree.oneset_build_ms"] = ("ms", *p(raw, "tree.oneset_build_s", 0.5, ms))
    out["tree.build_us_per_member"] = ("us", *p(raw, "tree.build_us_per_member", 0.5))
    out["task.dedup_ms"] = ("ms", *p(raw, "task.dedup_s", 0.5, ms))
    out["task.pairs"] = ("pairs", *value(raw, "task.pairs"))

    traced, n_traced = p(raw, "obs.traced_op_s", 0.5)
    plain, _ = p(raw, "obs.plain_op_s", 0.5)
    out["obs.trace_overhead_frac"] = ("ratio", traced / plain - 1.0, n_traced)
    out["obs.spans_dropped"] = ("count", *value(raw, "obs.spans_dropped"))
    spans = raw["spans"]
    layers, coverage = stats.ledger(spans, raw["values"]["obs.traced_wall_s"])
    out["obs.ledger_coverage"] = ("ratio", coverage, len(spans))
    for layer in LAYERS:
        out[f"ledger.{layer}_self_share"] = ("ratio", layers.get(layer, 0.0), len(spans))
    unknown = set(layers) - set(LAYERS)
    if unknown:
        raise SystemExit(f"perfbench: spans of unknown layers {sorted(unknown)}")
    return out


def declared_metrics(root, kind):
    """Metric names BENCHMARK.json declares for `kind`, in order (None
    when the file is absent)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[kind]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: remo_perfbench exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw, args.workload)
    declared = declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    if declared is not None and declared != list(metrics):
        raise SystemExit(f"perfbench: metrics {list(metrics)} differ from BENCHMARK.json's {declared}")
    print("# fingerprint " + json.dumps(raw["info"], sort_keys=True))
    for check in raw["checks"]:
        print(f"# check {check['name']}: {'ok' if check['ok'] else 'FAILED'} {check['detail']}")
    print(f"# operations attempted {raw['attempted']} failed {raw['failed']} "
          f"(failure share {stats.failure_share(raw['attempted'], raw['failed']):.3g})")
    for name, entry in metrics.items():
        unit, v, n = entry[:3]
        note = f"  {entry[3]}" if len(entry) > 3 and entry[3] else ""
        print(f"# {name:34s} {v:14.6g} {unit:6s} n={n:g}{note}")
    if args.trace:
        print("# self time by span name (count, total s, self s, self share of traced wall):")
        wall = raw["values"]["obs.traced_wall_s"]
        for name, (c, total, self_s) in sorted(stats.self_times(raw["spans"]).items(),
                                              key=lambda kv: -kv[1][2]):
            print(f"#   {name:32s} {c:8d} {total:10.4f} {self_s:10.4f} {self_s / wall:7.2%}")
    print(json.dumps({
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": e[1], "unit": e[0]} for name, e in metrics.items()},
    }))


if __name__ == "__main__":
    main()
