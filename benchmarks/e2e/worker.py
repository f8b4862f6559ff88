"""One workload in one fresh interpreter (started by ``run.py``, never by hand).

Modes: ``run`` (set-up, warm-up, the untraced timed blocks, each behind a
host-speed calibration, which ``run.py`` turns into the end-to-end metrics), ``traced`` (a
short untraced and a short traced phase for the tracing overhead, then
the per-layer ledger). Prints one JSON document as the last line of
stdout; a failed output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

import harness

os.environ.update(harness.THREAD_ENV)  # before numpy is first imported

import workloads  # noqa: E402


def tree_cpu_s(workload) -> float:
    server = workload.server
    return harness.self_cpu_s() + (harness.pid_cpu_s(server.pid) if server else 0.0)


def reconstruct(name: str, m: dict) -> float | None:
    """``op_p50_ms`` rebuilt from the ledger's parts, where one caller and
    no contention make the parts add up (see README, "How they interact")."""
    if name == "rollout_r1":
        return workloads.N_STEPS * m["gnn.forward_ms"] + m["gnn.rollout_overhead_ms"]
    if name == "train_r2":
        iteration = sum(m[k] for k in ("gnn.forward_grad_ms", "gnn.loss_ms", "gnn.backward_ms",
                                       "gnn.grad_sync_ms", "nn.adam_step_ms",
                                       "gnn.iteration_unattributed_ms"))
        return workloads.TRAIN_ITERATIONS * iteration + m["gnn.job_overhead_ms"]
    return None


def run_blocks(workload, args) -> tuple:
    """The untraced timed phase: ``(blocks, phases, bytes the calibration kernel keeps resident)``,
    a calibration before every block."""
    n = 1 if args.seconds is None else harness.BLOCKS_PER_PROCESS
    seconds = None if args.seconds is None else args.seconds / n - harness.CALIBRATION_S
    kernel = harness.calibration_kernel()
    blocks, phases, first_op = [], [], 0
    for _ in range(n):
        calibration_ms = harness.calibrate(kernel)
        cpu0 = tree_cpu_s(workload)
        phase = workloads.timed_phase(workload, seconds, args.ops, first_op)
        blocks.append(harness.block_stats(phase, tree_cpu_s(workload) - cpu0, calibration_ms))
        phases.append(phase)
        first_op = phase["next_op"]
    return blocks, phases, kernel.resident_bytes


def run_traced(workload, args, doc: dict) -> int:
    """Tracing overhead on this workload, its trace file, then the ledger."""
    from ledger import Ledger

    seconds = None if args.seconds is None else args.seconds / 5
    ops = None if args.ops is None else max(workload.clients, args.ops // 5)
    gc.collect()
    untraced = workloads.timed_phase(workload, seconds, ops)
    rec = harness.Recorder(True)
    workload.begin_traced(rec)
    gc.collect()
    traced = workloads.timed_phase(workload, seconds, ops)
    workload.end_traced()
    counters = workload.counters()
    workload.teardown()
    p50 = [statistics.median(p["latencies_s"]) for p in (traced, untraced)]
    metrics = Ledger(args.seed, args.quick).measure()
    metrics["obs.harness_overhead_ratio"] = p50[0] / p50[1]
    harness.OUT_DIR.mkdir(exist_ok=True)
    trace_path = harness.OUT_DIR / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps(rec.chrome()))
    rebuilt = reconstruct(workload.name, metrics)
    if rebuilt is not None:
        gap = 1e3 * p50[1] - rebuilt
        doc["reconstruction"] = {"reconstructed_ms": rebuilt, "untraced_op_p50_ms": 1e3 * p50[1],
                                 "unattributed_ms": gap, "unattributed_share": gap / (1e3 * p50[1])}
    failed = traced["failed"] + untraced["failed"]
    doc.update(
        attempted=len(traced["latencies_s"]) + len(untraced["latencies_s"]), failed=failed,
        counters=counters, metrics=metrics, layer_table=rec.layer_table(),
        traced_op_p50_ms=1e3 * p50[0], untraced_op_p50_ms=1e3 * p50[1],
        trace_file=str(trace_path.relative_to(harness.REPO_ROOT)),
    )
    return failed + sum(counters.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("run", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    if cls.clients > harness.nproc():
        print(f"refusing to run {cls.clients} load-generating threads on {harness.nproc()} core(s): "
              f"the clients would queue behind each other, not behind the system", file=sys.stderr)
        return 2
    sockets = harness.open_sockets()
    doc = {"workload": args.workload, "mode": args.mode, "seed": args.seed, "quick": args.quick,
           "hygiene": harness.hygiene()}
    workload = cls(args.seed, harness.Recorder(False))
    workload.setup()
    workload.run_warmup()
    if args.corrupt_reference:
        workload.corrupt_reference()
    gc.collect()  # GC stays on during the timed phase (users pay it); start it from a clean heap
    setup_s = time.time() - args.spawned_at
    if args.mode == "traced":
        bad = run_traced(workload, args, doc)
    else:
        blocks, phases, kernel_bytes = run_blocks(workload, args)
        failed = sum(p["failed"] for p in phases)
        counters = workload.counters()
        with_child = workload.server is not None
        workload.teardown()  # reaps the server child, so its peak RSS is known
        doc.update(
            attempted=sum(b["ops"] for b in blocks), failed=failed, counters=counters, setup_s=setup_s,
            blocks=blocks, latencies_ms=[1e3 * s for p in phases for s in p["latencies_s"]],
            wall_s=sum(p["wall_s"] for p in phases),
            cpu_s=sum(b["cpu_ms_per_op"] * b["ops"] for b in blocks) / 1e3,
            node_steps=workload.node_steps_per_op, wall_follows_host=workload.wall_follows_host,
            peak_rss_mb=harness.peak_rss_mib(with_child, not_the_programs_bytes=kernel_bytes),
        )
        bad = failed + sum(counters.values())
    harness.assert_no_leaks(sockets)
    doc["hygiene"]["loadavg_end"] = list(os.getloadavg())
    print(json.dumps(doc))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
