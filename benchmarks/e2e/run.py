#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end metrics, a per-layer ledger.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--quick] [--out FILE]

Every workload runs in its own fresh interpreter (``worker.py``), one
after the other, BLAS pinned to one thread. Without ``--trace 1`` the
run measures the end-to-end metrics (profiler not installed, no spans
recorded); with it, the tracing overhead on that workload and every
per-layer metric. Every metric is printed by name with its unit, the
whole result is written as one JSON document (``--out``, default
``benchmarks/e2e/out/``), and the last line of stdout is the one-object
summary ``BENCHMARK.json``'s contract asks for. Exit code 1 when an
output check failed or a request was shed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness

#: An untraced run is this many fresh interpreters, each timing a third of ``--seconds`` in
#: blocks (``harness.block_stats``). ``setup_s`` needs several samples and each needs a fresh
#: interpreter; timing in all of them also averages what a process locks into once (memory
#: layout, thread placement) instead of sampling it once per run.
PROCESSES = 3
QUICK_OPS = 10


def spawn(workload: str, mode: str, args, seconds: float, extra=()) -> dict:
    """Run one worker to completion; its JSON document plus its exit code."""
    cmd = [sys.executable, str(harness.HERE / "worker.py"), "--workload", workload, "--mode", mode,
           "--seed", str(args.seed), "--spawned-at", repr(time.time()), *extra]
    if args.quick:
        cmd += ["--quick", "--ops", str(QUICK_OPS)]
    else:
        cmd += ["--seconds", repr(seconds)]
    proc = subprocess.run(cmd, env=harness.child_env(), stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"worker for {workload!r} ({mode}) exited {proc.returncode} without a result")
    doc = json.loads(lines[-1])
    doc["exit_code"] = proc.returncode
    return doc


def run_workload(name: str, args) -> dict:
    if args.trace:
        return spawn(name, "traced", args, args.seconds)
    extra = ["--corrupt-reference"] if args.corrupt_reference else []
    n = 1 if args.quick else PROCESSES
    parts = [spawn(name, "run", args, args.seconds / n, extra) for _ in range(n)]
    latencies = [ms for p in parts for ms in p["latencies_ms"]]
    blocks = [b for p in parts for b in p["blocks"]]
    ops, wall_s = len(latencies), sum(p["wall_s"] for p in parts)

    def best_quartile(key: str, better: str = "lower") -> float:
        """The value the best quarter of the run's blocks reach (``harness.block_stats`` says why)."""
        return harness.percentile([b[key] for b in blocks], 0.25 if better == "lower" else 0.75)

    calibration_ms = best_quartile("calibration_ms")
    host = harness.CALIBRATION_REFERENCE_MS / calibration_ms  # < 1: the host is slower than the reference
    wall = host if parts[0]["wall_follows_host"] else 1.0
    raw = {
        "setup_s": statistics.median([p["setup_s"] for p in parts]),
        "op_p50_ms": best_quartile("p50_ms"),
        "op_p90_ms": best_quartile("p90_ms"),
        "node_steps_per_s": best_quartile("ops_per_s", "higher") * parts[0]["node_steps"],
        "cpu_ms_per_op": best_quartile("cpu_ms_per_op"),
    }
    return {
        "workload": name, "mode": "run", "seed": args.seed,
        "attempted": ops, "failed": sum(p["failed"] for p in parts),
        "exit_code": max(p["exit_code"] for p in parts),
        "counters": {k: sum(p["counters"][k] for p in parts) for k in parts[0]["counters"]},
        "metrics": {
            "setup_s": raw["setup_s"] * host,
            "op_p50_ms": raw["op_p50_ms"] * wall,
            "op_p90_ms": raw["op_p90_ms"] * wall,
            "node_steps_per_s": raw["node_steps_per_s"] / wall,
            "cpu_ms_per_op": raw["cpu_ms_per_op"] * host,
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in parts]),
        },
        # the scaling, what was measured before it, and the same over the whole run with its tail
        "diagnostics": {"calibration_ms": calibration_ms, "host_speed": host, "wall_scaled_by": wall,
                        **{f"measured_{k}": v for k, v in raw.items()},
                        "pooled_p50_ms": harness.percentile(latencies, 0.5),
                        "pooled_p90_ms": harness.percentile(latencies, 0.9),
                        "whole_run_node_steps_per_s": ops * parts[0]["node_steps"] / wall_s,
                        "whole_run_cpu_ms_per_op": 1e3 * sum(p["cpu_s"] for p in parts) / ops,
                        "op_p99_ms": harness.percentile(latencies, 0.99), "op_max_ms": max(latencies),
                        "timed_wall_s": wall_s, "processes": n, "blocks": len(blocks)},
        "per_process": [
            {k: p[k] for k in ("setup_s", "attempted", "wall_s", "cpu_s", "peak_rss_mb", "blocks")}
            for p in parts
        ],
        "hygiene": [p["hygiene"] for p in parts],
    }


def print_metrics(doc: dict, units: dict) -> None:
    n = doc["attempted"]
    print(f"\n== {doc['workload']} ({'traced' if doc['mode'] == 'traced' else 'untraced'}, "
          f"seed {doc['seed']}, {n} ops, {doc['failed']} failed, "
          f"failed_fraction {doc['failed'] / n:.4f}) ==")
    for name, value in doc["metrics"].items():
        note = ""
        if doc["mode"] == "run":
            note = (f"median of {len(doc['per_process'])} processes" if name in ("setup_s", "peak_rss_mb")
                    else f"best quartile of {doc['diagnostics']['blocks']} blocks, {n} ops")
        print(f"{name:40s} {value:16.6g} {units[name]:8s} {note}")
    for name, value in doc.get("diagnostics", {}).items():
        print(f"{'(' + name + ')':40s} {value:16.6g}")
    for layer, row in sorted(doc.get("layer_table", {}).items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  self time {layer:12s} {row['self_ms']:12.2f} ms over {row['spans']} spans")
        for span, ms in sorted(row["by_name"].items(), key=lambda kv: -kv[1]):
            print(f"      {span:36s} {ms:12.2f} ms")
    if "reconstruction" in doc:
        print("  op_p50_ms rebuilt from the ledger: {reconstructed_ms:.2f} ms vs {untraced_op_p50_ms:.2f} ms "
              "measured, unattributed_ms {unattributed_ms:.2f} ({unattributed_share:.1%})"
              .format(**doc["reconstruction"]))


def main() -> int:
    contract = harness.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help=f"timed seconds per workload (split over {PROCESSES} processes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke run: {QUICK_OPS} ops per workload in one process")
    parser.add_argument("--out", help="where to write the JSON document")
    parser.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (harness.REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit("the program under test (src/repro) is not in this checkout")

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}
    docs = [run_workload(name, args) for name in ([args.workload] if args.workload else names)]
    for doc in docs:
        if set(doc["metrics"]) != set(units):
            raise SystemExit(f"emitted metrics differ from BENCHMARK.json: "
                             f"{sorted(set(doc['metrics']) ^ set(units))}")
        print_metrics(doc, units)

    document = {"benchmark": "e2e", "seed": args.seed, "quick": args.quick, "traced": bool(args.trace),
                "seconds": None if args.quick else args.seconds,
                "workloads": {d["workload"]: d for d in docs}}
    harness.OUT_DIR.mkdir(exist_ok=True)
    out = args.out or harness.OUT_DIR / (
        f"{'traced' if args.trace else 'e2e'}-{args.workload or 'all'}-seed{args.seed}.json")
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"\nwrote {out}")

    failed = sum(d["failed"] for d in docs)
    bad = failed or any(d["exit_code"] for d in docs)
    prefix = (lambda d: "") if args.workload else (lambda d: d["workload"] + ".")
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": failed,
        "metrics": {prefix(d) + k: {"value": v, "unit": units[k]}
                    for d in docs for k, v in d["metrics"].items()},
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
