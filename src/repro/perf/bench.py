"""Inference microbenchmarks: the perf trajectory of the NMP hot loop.

``python -m repro bench`` times, on this host:

* **per-op** — the edge-aggregation ``scatter_add`` and the gather
  backward, naive ``np.add.at`` vs the compiled aggregation plan
  (:mod:`repro.tensor.aggregation`), on a real element graph;
* **end-to-end** — autoregressive :func:`repro.gnn.rollout.rollout`,
  the two forward paths the library has: the naive reference (the
  ``Tensor`` op chain, allocate-per-step, ``np.add.at`` scatters) and
  the fused inference path (:mod:`repro.tensor.fused` kernels in a
  workspace arena, the library default) — single-rank and (full mode)
  4-rank threaded;
* **plan compile** — one-time plan build cost, for context against the
  per-step savings.

The reference is selected with :func:`repro.tensor.naive_aggregation` +
``workspace=False``; the fused path is the library default. The pair
is asserted bitwise identical before it is timed. Results are
printed as markdown tables and written to ``BENCH_inference.json`` so
every PR leaves a perf data point (CI uploads the artifact from the
``bench-smoke`` job; the ``numerics`` job additionally holds the fused
speedup and the float32 tier's error bound to the committed file — see
``tools/check_numerics.py``).

``--numerics`` appends the float32-tier error-growth report
(:mod:`repro.perf.numerics`) to the document under a ``"numerics"``
key.

Numbers are wall-clock on whatever machine runs the bench: compare
within one file, not across hosts.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Callable

import numpy as np

from repro.gnn import GNNConfig, MeshGNN
from repro.gnn.rollout import rollout
from repro.graph.distributed import build_distributed_graph, build_full_graph
from repro.graph.plans import compile_graph_plans
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.perf.report import markdown_table
from repro.tensor import naive_aggregation
from repro.tensor.aggregation import AggregationPlan


def _best_of(fn: Callable[[], object], repeats: int, number: int = 1) -> float:
    """Best mean seconds per call over ``repeats`` timed batches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _best_of_pair(
    a: Callable[[], object], b: Callable[[], object], repeats: int
) -> tuple[float, float]:
    """Best seconds for two competitors, interleaved a,b,a,b,...

    Interleaving makes the comparison robust to slow drift in machine
    load — each competitor samples the same load profile.
    """
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for i, fn in enumerate((a, b)):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best[0], best[1]


def bench_ops(mesh: BoxMesh, width: int, repeats: int) -> dict:
    """Naive vs planned scatter/gather-backward on the full mesh graph."""
    graph = build_full_graph(mesh)
    dst = graph.edge_index[1]
    n, e = graph.n_local, graph.n_edges
    src_rows = np.random.default_rng(0).standard_normal((e, width))
    plan = AggregationPlan(dst, n)

    def naive_scatter():
        out = np.zeros((n, width))
        np.add.at(out, dst, src_rows)
        return out

    workspace = np.zeros((n, width))
    planned_scatter = lambda: plan.scatter_add(src_rows, out=workspace)  # noqa: E731
    assert (naive_scatter() == planned_scatter()).all(), "plan path diverged"

    # gather backward = scatter over the (unsorted) sender index
    src_index = graph.edge_index[0]
    gplan = AggregationPlan(src_index, n)

    def naive_gather_bwd():
        out = np.zeros((n, width))
        np.add.at(out, src_index, src_rows)
        return out

    gws = np.zeros((n, width))
    planned_gather_bwd = lambda: gplan.scatter_add(src_rows, out=gws)  # noqa: E731
    assert (naive_gather_bwd() == planned_gather_bwd()).all()

    compile_s = _best_of(lambda: AggregationPlan(dst, n), max(2, repeats // 2))
    scatter_naive_s, scatter_plan_s = _best_of_pair(
        naive_scatter, planned_scatter, repeats
    )
    gather_naive_s, gather_plan_s = _best_of_pair(
        naive_gather_bwd, planned_gather_bwd, repeats
    )
    results = {
        "graph": {"n_nodes": n, "n_edges": e, "width": width},
        "scatter_add": {"naive_s": scatter_naive_s, "plan_s": scatter_plan_s},
        "gather_backward": {"naive_s": gather_naive_s, "plan_s": gather_plan_s},
        "plan_compile_s": compile_s,
    }
    for op in ("scatter_add", "gather_backward"):
        r = results[op]
        r["speedup"] = r["naive_s"] / r["plan_s"] if r["plan_s"] else float("inf")
    return results


def _rollout_pair(
    model: MeshGNN,
    graph,
    x0: np.ndarray,
    n_steps: int,
    repeats: int,
    comm=None,
) -> dict:
    """Time the naive reference vs the fused inference path on one
    (already-built) graph. ``tools/check_obs_overhead.py`` compares the
    ``fused_s / naive_s`` ratio across runs."""

    def naive():
        with naive_aggregation():
            return rollout(
                model, graph, x0, n_steps, comm=comm,
                halo_mode="n-a2a", workspace=False,
            )

    def fused():
        return rollout(model, graph, x0, n_steps, comm=comm, halo_mode="n-a2a")

    for a, b in zip(naive(), fused()):
        assert (a == b).all(), "fused rollout diverged from naive rollout"
    naive_s, fused_s = _best_of_pair(naive, fused, repeats)
    return {
        "n_steps": n_steps,
        "naive_s": naive_s,
        "fused_s": fused_s,
        "fused_speedup": naive_s / fused_s if fused_s else float("inf"),
    }


def bench_rollout(mesh: BoxMesh, config: GNNConfig, n_steps: int, repeats: int) -> dict:
    model = MeshGNN(config)
    graph = build_full_graph(mesh)
    started = time.perf_counter()
    plans = compile_graph_plans(graph)
    plan_build_s = time.perf_counter() - started
    graph.__dict__["_plans"] = plans
    x0 = taylor_green_velocity(mesh.all_positions())
    out = _rollout_pair(model, graph, x0, n_steps, repeats)
    out["plan_build_s"] = plan_build_s
    out["config"] = {
        "hidden": config.hidden,
        "n_message_passing": config.n_message_passing,
        "n_mlp_hidden": config.n_mlp_hidden,
        "edge_features": config.edge_features,
    }
    return out


def bench_rollout_multirank(
    mesh: BoxMesh, config: GNNConfig, n_steps: int, repeats: int, ranks: int = 4
) -> dict:
    """4-rank threaded rollout, naive vs fused (each rank owns an arena)."""
    from repro.comm.threaded import ThreadWorld

    model = MeshGNN(config)
    dg = build_distributed_graph(mesh, auto_partition(mesh, ranks))
    x0 = taylor_green_velocity(mesh.all_positions())

    def run(workspace: bool) -> float:
        def program(comm):
            lg = dg.local(comm.rank)
            if workspace:
                return rollout(model, lg, x0[lg.global_ids], n_steps, comm, "n-a2a")
            with naive_aggregation():
                return rollout(
                    model, lg, x0[lg.global_ids], n_steps, comm, "n-a2a",
                    workspace=False,
                )

        start = time.perf_counter()
        ThreadWorld(ranks).run(program)
        return time.perf_counter() - start

    naive_s, fused_s = _best_of_pair(lambda: run(False), lambda: run(True), repeats)
    return {
        "ranks": ranks,
        "n_steps": n_steps,
        "naive_s": naive_s,
        "fused_s": fused_s,
        "fused_speedup": naive_s / fused_s if fused_s else float("inf"),
    }


def bench_ensemble(quick: bool = False) -> dict:
    """Tiled ensemble vs M serial member rollouts on a pooled engine.

    ``M`` perturbed members of one request tile into batched rollouts
    (:mod:`repro.ensemble`): the baseline submits the same ``M``
    deterministic member rollouts one at a time and waits on each, the
    ensemble path streams them through ``max_batch_size``-member tiles
    on ``W`` workers with the streaming reducer folding every step.
    Member trajectories are asserted bitwise identical to their direct
    rollouts *before* timing, so the wall-time margin is pure batching
    and overlap — never different math. The wire-cost probe serializes
    one summary frame at ``M = 2`` and ``M = 8`` and records whether
    the payload stayed flat in ``M`` (summaries are member-count
    independent unless ``return_members`` is set).
    ``tools/check_ensemble.py`` holds ``speedup`` and ``wire.flat`` in
    CI.
    """
    import io

    from repro.ensemble.api import EnsembleRequest, PerturbationSpec
    from repro.runtime import PooledEngine
    from repro.serve import ServeConfig, protocol

    n_members, n_workers, max_batch = 8, 2, 4
    n_steps = 2 if quick else 4
    repeats = 3 if quick else 5
    mesh = BoxMesh(4, 4, 2, p=1)
    graph = build_full_graph(mesh)
    x0 = taylor_green_velocity(mesh.all_positions())
    model = MeshGNN(
        GNNConfig(hidden=12, n_message_passing=2, n_mlp_hidden=1, seed=7)
    )

    def request(n_members=n_members, n_steps=n_steps, **kw):
        kw.setdefault("summaries", ("mean", "variance", "min", "max"))
        return EnsembleRequest(
            model="m", graph="g", x0=x0, n_steps=n_steps,
            n_members=n_members,
            perturbation=PerturbationSpec(seed=17, noise_scale=1e-3),
            **kw,
        )

    engine = PooledEngine(ServeConfig(
        n_workers=n_workers, max_batch_size=max_batch, max_wait_s=0.0,
    ))
    try:
        engine.register_model("m", model)
        engine.register_graph("g", [graph])

        # the tiling contract, checked before anything is timed: every
        # member of the batched ensemble is bitwise the member's own
        # serial rollout
        req = request(return_members=True)
        result = engine.ensemble(req)
        for m in range(n_members):
            direct = engine.rollout(req.member_request(m))
            for a, b in zip(direct.states, result.member_trajectory(m)):
                assert a.tobytes() == b.tobytes(), (
                    f"tiled member {m} diverged from its direct rollout"
                )
        bitwise = True

        def sequential():
            return [engine.rollout(r) for r in request().member_requests()]

        def tiled():
            return engine.ensemble(request())

        sequential(), tiled()  # warm tiles/plans/arenas out of the timing
        seq_s, ens_s = _best_of_pair(sequential, tiled, repeats)

        def frame_bytes(m):
            frame = engine.ensemble(request(n_members=m, n_steps=1)).frames[0]
            buf = io.BytesIO()
            protocol.write_message(
                buf, *protocol.summary_frame_message(frame)
            )
            return buf.tell()

        b_small, b_large = frame_bytes(2), frame_bytes(n_members)
    finally:
        engine.close()

    return {
        "members": n_members,
        "workers": n_workers,
        "max_batch_size": max_batch,
        "n_steps": n_steps,
        "sequential_s": seq_s,
        "ensemble_s": ens_s,
        "speedup": seq_s / ens_s if ens_s else float("inf"),
        "bitwise_identical": bitwise,
        "wire": {
            "frame_bytes_m2": b_small,
            f"frame_bytes_m{n_members}": b_large,
            # only the header's member-count digits may move, never
            # O(M) arrays
            "flat": abs(b_large - b_small) <= 16,
        },
    }


def run_bench(
    quick: bool = False, trace: bool = False, numerics: bool = False
) -> dict:
    """Execute the suite; returns the JSON-able result document.

    ``trace=True`` installs the hot-loop profiler
    (:mod:`repro.obs.profile`) for the duration, so the document gains
    per-op call counts and a ``"tracing": true`` flag — the numbers
    then measure the *instrumented* path and must not be compared
    against an uninstrumented run (``tools/check_obs_overhead.py``
    relies on the flag to refuse exactly that comparison).
    """
    # op-bench sizes mirror one rank's share of a partitioned mesh (the
    # serving hot loop operates per-rank sub-graphs, not global meshes);
    # width 32 is the hidden channel width of the rollout config below
    if quick:
        op_mesh, roll_mesh = BoxMesh(6, 6, 6, p=3), BoxMesh(6, 6, 4, p=2)
        width, repeats, n_steps = 32, 3, 3
    else:
        op_mesh, roll_mesh = BoxMesh(8, 8, 8, p=3), BoxMesh(8, 8, 6, p=2)
        width, repeats, n_steps = 32, 5, 5
    config = GNNConfig(
        hidden=32,
        n_message_passing=2,
        n_mlp_hidden=1,
        seed=3,
    )
    profiler = None
    if trace:
        from repro.obs.profile import install_profiler

        profiler = install_profiler()
    try:
        doc = {
            "bench": "inference",
            "quick": quick,
            "tracing": trace,
            "machine": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "ops": bench_ops(op_mesh, width, repeats),
            "rollout_single_rank": bench_rollout(
                roll_mesh, config, n_steps, repeats
            ),
            "ensemble": bench_ensemble(quick=quick),
        }
        if not quick:
            doc["rollout_4rank"] = bench_rollout_multirank(
                roll_mesh, config, n_steps, max(2, repeats // 2)
            )
        if numerics:
            from repro.perf.numerics import run_numerics

            doc["numerics"] = run_numerics(quick=quick)
    finally:
        if trace:
            from repro.obs.profile import uninstall_profiler

            uninstall_profiler()
    if profiler is not None:
        doc["profile"] = profiler.snapshot()
    return doc


def render(doc: dict) -> str:
    rows = []
    ops = doc["ops"]
    g = ops["graph"]
    for op in ("scatter_add", "gather_backward"):
        r = ops[op]
        rows.append([
            f"{op} (E={g['n_edges']}, F={g['width']})",
            f"{r['naive_s'] * 1e3:.2f}",
            f"{r['plan_s'] * 1e3:.2f}",
            f"{r['speedup']:.2f}x",
        ])
    for key, label in (
        ("rollout_single_rank", "rollout 1 rank"),
        ("rollout_4rank", "rollout 4 ranks"),
    ):
        if key in doc:
            r = doc[key]
            rows.append([
                f"{label} ({r['n_steps']} steps)",
                f"{r['naive_s'] * 1e3:.2f}",
                f"{r['fused_s'] * 1e3:.2f}",
                f"{r['fused_speedup']:.2f}x",
            ])
    table = markdown_table(
        ["benchmark", "naive (ms)", "plan / fused (ms)", "speedup"], rows
    )
    extra = (
        f"\nplan compile: {ops['plan_compile_s'] * 1e3:.2f} ms "
        f"(amortized across every step of every request)"
    )
    if doc.get("ensemble"):
        en = doc["ensemble"]
        wire = en["wire"]
        extra += (
            f"\n\ntiled ensemble ({en['members']} members, "
            f"{en['workers']} workers, batch {en['max_batch_size']}, "
            f"{en['n_steps']} steps): "
            f"sequential {en['sequential_s'] * 1e3:.1f} ms, "
            f"ensemble {en['ensemble_s'] * 1e3:.1f} ms "
            f"({en['speedup']:.2f}x, bitwise identical: "
            f"{en['bitwise_identical']}); "
            f"summary frame flat in M: {wire['flat']}"
        )
    if doc.get("numerics"):
        from repro.perf.numerics import render_numerics

        extra += "\n\n" + render_numerics(doc["numerics"])
    if doc.get("profile"):
        prof_rows = [
            [op, s["calls"], f"{s['total_s'] * 1e3:.2f}",
             f"{s['mean_s'] * 1e6:.1f}"]
            for op, s in sorted(
                doc["profile"].items(),
                key=lambda kv: -kv[1]["total_s"],
            )
        ]
        extra += "\n\nhot-loop profile (tracing on):\n" + markdown_table(
            ["op", "calls", "total (ms)", "mean (us)"], prof_rows
        )
    return table + extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="NMP inference microbenchmarks (naive reference vs plans / fused path)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (~seconds)",
    )
    parser.add_argument(
        "--output", default="BENCH_inference.json",
        help="where to write the JSON results (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="install the hot-loop profiler for the run (per-op counts "
        "in the output; numbers measure the instrumented path)",
    )
    parser.add_argument(
        "--numerics", action="store_true",
        help="append the float32-tier error-growth report (f32 vs f64 "
        "rollout, per-step max relative error vs the committed bound)",
    )
    args = parser.parse_args(argv)
    doc = run_bench(quick=args.quick, trace=args.trace, numerics=args.numerics)
    print(render(doc))
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
