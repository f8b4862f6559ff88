"""Serving throughput — dynamic batching vs sequential per-request rollout.

The claim: coalescing concurrent same-key requests into one tiled
forward pass per step amortizes the per-op overhead (and, distributed,
the per-collective latency) that a sequential per-request loop pays
``B`` times, so a batched service clears strictly more requests per
second than a sequential one. The benchmark fires the same concurrent
burst at two ``pool://`` engine configurations — ``max_batch_size=1``
(sequential) and ``max_batch_size=BURST`` (dynamic batching) — and
reports wall time, throughput, cache hit rate, and queue metrics for
each. The per-``(asset, batch_size)`` tiled-graph cache is visible in
the same stats: sequential serving never tiles (a multi-rank world is
stitched once, then every lookup is a batch-1 hit), and batched serving
re-tiles only when a batch size first appears.
"""

import threading
import time

import pytest

from repro.gnn import GNNConfig, MeshGNN
from repro.graph import build_distributed_graph, build_full_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.perf.report import markdown_table
from repro.runtime import RolloutRequest, connect
from repro.serve import ServeConfig

CONFIG = GNNConfig(hidden=6, n_message_passing=2, n_mlp_hidden=1, seed=3)
BURST = 12  # concurrent requests per burst
N_STEPS = 5
WARMUP_STEPS = 1


@pytest.fixture(scope="module")
def mesh():
    return BoxMesh(4, 4, 2, p=1)


@pytest.fixture(scope="module")
def model():
    return MeshGNN(CONFIG)


@pytest.fixture(scope="module")
def x0(mesh):
    return taylor_green_velocity(mesh.all_positions())


def fire_burst(engine, x0, n_requests, n_steps):
    """Submit ``n_requests`` concurrently; return wall seconds to drain."""
    errors = []

    def fire(i):
        try:
            result = engine.rollout(RolloutRequest(
                model="m", graph="g", x0=x0, n_steps=n_steps,
            ))
            assert len(result.states) == n_steps + 1
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=fire, args=(i,)) for i in range(n_requests)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors[0]
    return elapsed


def run_config(graphs, model, x0, max_batch_size, max_wait_s):
    config = ServeConfig(max_batch_size=max_batch_size, max_wait_s=max_wait_s)
    with connect("pool://", config=config) as engine:
        engine.register_model("m", model)
        engine.register_graph("g", graphs)
        fire_burst(engine, x0, 2, WARMUP_STEPS)  # warm cache + code paths
        elapsed = fire_burst(engine, x0, BURST, N_STEPS)
        stats = engine.stats()
    return elapsed, stats


@pytest.fixture(scope="module")
def single_graphs(mesh):
    """One graph list, aggregation plans precompiled once.

    Shared (with plans resident) by every engine configuration in the
    module, so the timed bursts measure batching — not per-service
    plan rebuilds: GraphCache admission sees the compiled plans and
    reuses them (plan_build_s ~ 0 for every service after the first).
    """
    graphs = [build_full_graph(mesh)]
    for g in graphs:
        g.plans  # compile once, outside any timing (no-op if disabled)
    return graphs


@pytest.fixture(scope="module")
def multi_graphs(mesh):
    dg = build_distributed_graph(mesh, auto_partition(mesh, 4))
    for g in dg.locals:
        g.plans
    return list(dg.locals)


@pytest.fixture(scope="module")
def single_rank_results(single_graphs, model, x0):
    seq_s, seq_stats = run_config(single_graphs, model, x0, 1, 0.0)
    bat_s, bat_stats = run_config(single_graphs, model, x0, BURST, 0.05)
    return {"sequential": (seq_s, seq_stats), "batched": (bat_s, bat_stats)}


@pytest.fixture(scope="module")
def multi_rank_results(multi_graphs, model, x0):
    seq_s, seq_stats = run_config(multi_graphs, model, x0, 1, 0.0)
    bat_s, bat_stats = run_config(multi_graphs, model, x0, BURST, 0.05)
    return {"sequential": (seq_s, seq_stats), "batched": (bat_s, bat_stats)}


def _report(title, results):
    rows = []
    for name, (elapsed, stats) in results.items():
        rows.append([
            name,
            f"{elapsed * 1e3:.1f}",
            f"{BURST / elapsed:.1f}",
            f"{stats.mean_batch_size:.2f}",
            stats.batches,
            f"{stats.cache.hit_rate:.2f}",
            f"{stats.tile_hits} / {stats.tile_misses}",
            stats.queue_depth_high_water,
            f"{stats.mean_queue_wait_s * 1e3:.2f}",
        ])
    print(f"\n{title} — {BURST} concurrent requests x {N_STEPS} steps")
    print(markdown_table(
        ["config", "wall (ms)", "req/s", "mean batch", "batches",
         "cache hit rate", "tile hit/miss", "queue high water",
         "mean wait (ms)"],
        rows,
    ))


def test_single_rank_batching_beats_sequential(single_rank_results):
    _report("single-rank serving", single_rank_results)
    seq_s, seq_stats = single_rank_results["sequential"]
    bat_s, bat_stats = single_rank_results["batched"]
    assert bat_stats.mean_batch_size > 1.5, "batching never engaged"
    assert seq_stats.mean_batch_size == 1.0
    assert BURST / bat_s > BURST / seq_s, (
        f"batched throughput {BURST / bat_s:.1f} req/s did not beat "
        f"sequential {BURST / seq_s:.1f} req/s"
    )


def test_multi_rank_batching_beats_sequential(multi_rank_results):
    _report("4-rank threaded serving", multi_rank_results)
    seq_s, _ = multi_rank_results["sequential"]
    bat_s, bat_stats = multi_rank_results["batched"]
    assert bat_stats.mean_batch_size > 1.5, "batching never engaged"
    assert BURST / bat_s > BURST / seq_s


def test_cache_hit_rate_reported(single_rank_results):
    """Every burst after warmup hits the resident graph asset."""
    for name in ("sequential", "batched"):
        _, stats = single_rank_results[name]
        assert stats.cache.misses == 1
        assert stats.cache.hit_rate >= 0.5


def test_queue_metrics_reported(single_rank_results):
    _, seq_stats = single_rank_results["sequential"]
    assert seq_stats.queue_depth_high_water >= 2  # burst actually queued
    assert seq_stats.requests == BURST + 2
    assert seq_stats.mean_queue_wait_s >= 0.0


def test_tile_cache_accounted_per_batch(single_rank_results, multi_rank_results):
    """Every executed batch looked its tiled replica up exactly once,
    whatever the world size; sequential configs (batch size 1) miss only
    to stitch a multi-rank world, once — sustained single-request load
    does zero tiling."""
    for results, world in ((single_rank_results, 1), (multi_rank_results, 4)):
        for name in ("sequential", "batched"):
            _, stats = results[name]
            assert stats.tile_hits + stats.tile_misses == stats.batches
        _, seq_stats = results["sequential"]
        assert seq_stats.tile_misses == (0 if world == 1 else 1)


def test_plans_compiled_once_not_per_request(single_rank_results):
    """The bursts rode on the precompiled plans: admission found them
    resident, so the cache spent (near) zero time building plans."""
    for name in ("sequential", "batched"):
        _, stats = single_rank_results[name]
        assert stats.cache.plan_build_s < 0.01, (
            f"{name}: plans were rebuilt during serving "
            f"({stats.cache.plan_build_s:.3f}s)"
        )


def test_benchmark_batched_burst(benchmark, single_graphs, model, x0):
    """pytest-benchmark timing of a batched burst end to end."""
    config = ServeConfig(max_batch_size=BURST, max_wait_s=0.05)
    with connect("pool://", config=config) as engine:
        engine.register_model("m", model)
        engine.register_graph("g", single_graphs)
        fire_burst(engine, x0, 2, WARMUP_STEPS)
        benchmark(fire_burst, engine, x0, BURST, N_STEPS)
