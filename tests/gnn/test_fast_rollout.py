"""The inference path must be invisible except for speed.

``rollout(workspace=True)`` — the fused raw-array kernels over compiled
aggregation plans inside the buffer-recycling workspace arena — must
produce bit-for-bit the same trajectories as the reference: the naive
allocate-per-step ``Tensor`` op chain with ``np.add.at`` aggregation,
in every mode the service exercises: single- and 4-rank, residual and
direct updates, geometric and full edge features. The steady-state loop
must also stop allocating after warmup, and must really be the *other*
path: no ``repro.tensor.ops`` function, no finalizer.
"""

import contextlib
import dataclasses
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.comm.threaded import ThreadWorld
from repro.gnn import GNNConfig, MeshGNN
from repro.gnn.rollout import rollout, workspace_steps
from repro.graph import build_distributed_graph, build_full_graph
from repro.graph.halo import HaloPlan
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.tensor import (
    InferenceArena,
    Tensor,
    fast_math,
    inference_mode,
    naive_aggregation,
    ops,
)


@pytest.fixture(scope="module")
def mesh():
    return BoxMesh(4, 4, 2, p=2)


@pytest.fixture(scope="module")
def x0(mesh):
    return taylor_green_velocity(mesh.all_positions())


def model_for(kind):
    return MeshGNN(
        GNNConfig(
            hidden=8, n_message_passing=2, n_mlp_hidden=1, seed=3,
            edge_features=kind,
        )
    )


def assert_trajectories_bitwise(ref, fast):
    assert len(ref) == len(fast)
    for a, b in zip(ref, fast):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind", ["geometric", "full"])
@pytest.mark.parametrize("residual", [False, True])
def test_single_rank_fast_path_bitwise(mesh, x0, kind, residual):
    model = model_for(kind)
    graph = build_full_graph(mesh)
    with naive_aggregation():
        ref = rollout(model, graph, x0, 5, residual=residual, workspace=False)
    fast = rollout(model, graph, x0, 5, residual=residual, workspace=True)
    assert_trajectories_bitwise(ref, fast)


@pytest.mark.parametrize("kind", ["geometric", "full"])
def test_four_rank_fast_path_bitwise(mesh, x0, kind):
    model = model_for(kind)
    dg = build_distributed_graph(mesh, auto_partition(mesh, 4))

    def run(workspace):
        def program(comm):
            lg = dg.local(comm.rank)
            if workspace:
                return rollout(
                    model, lg, x0[lg.global_ids], 4, comm, "n-a2a",
                    workspace=True,
                )
            with naive_aggregation():
                return rollout(
                    model, lg, x0[lg.global_ids], 4, comm, "n-a2a",
                    workspace=False,
                )

        return ThreadWorld(4).run(program)

    ref, fast = run(False), run(True)
    for rank in range(4):
        assert_trajectories_bitwise(ref[rank], fast[rank])


@pytest.mark.parametrize("mode", ["a2a", "n-a2a", "send-recv"])
def test_rank_without_halo_rows_bitwise(mesh, x0, mode):
    """A multi-rank graph whose rank has no neighbours (disconnected
    partition, uploaded graph) compiles no halo plan: the sync still
    joins the collective and adds nothing, bit for bit the reference."""
    model = model_for("geometric")
    full = build_full_graph(mesh)

    def run(workspace):
        def program(comm):
            lg = dataclasses.replace(
                full, rank=comm.rank, size=2, halo=HaloPlan.empty(2, comm.rank)
            )
            if workspace:
                return rollout(model, lg, x0, 3, comm, mode)
            with naive_aggregation():
                return rollout(model, lg, x0, 3, comm, mode, workspace=False)

        return ThreadWorld(2).run(program)

    ref, fast = run(False), run(True)
    for rank in range(2):
        assert_trajectories_bitwise(ref[rank], fast[rank])


def test_steady_state_rollout_is_allocation_free(mesh, x0):
    """After warmup, the fast loop draws every buffer from the pool
    (entered the way production enters: arena scope + fast-math gate)."""
    model = model_for("geometric")
    graph = build_full_graph(mesh)
    edge_attr = graph.edge_attr(kind="geometric")
    marks = []
    with inference_mode() as arena, fast_math():
        x = x0
        for _ in range(6):
            arena.reset()
            y = model(Tensor(x), edge_attr, graph).data
            marks.append(arena.reallocations)
            keep = np.array(y, copy=True)  # what rollout's states keep
            arena.recycle(x) if x is not x0 else None
            x = y
            del keep
    # first two steps may allocate (pool warmup + first recycle lag);
    # afterwards the pool must satisfy every request
    growth = [b - a for a, b in zip(marks[2:], marks[3:])]
    assert growth == [0] * len(growth), marks


@contextlib.contextmanager
def reference_path_calls(monkeypatch):
    """Record every call into ``repro.tensor.ops`` and every
    ``weakref.finalize`` registration, on this thread and on threads
    started inside the scope. Calls are seen by code object (a profile
    hook), so a function imported under another name still counts."""
    calls: list[str] = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == ops.__file__:
            calls.append(f"ops.{frame.f_code.co_name}")

    class CountingFinalize(weakref.finalize):
        def __init__(self, *args, **kwargs):
            calls.append("weakref.finalize")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(weakref, "finalize", CountingFinalize)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


class TestInferenceIsTheOtherPath:
    """A warmed ``workspace_steps`` call runs the fused raw-array
    kernels end to end: encoders, processor, halo sync and decoder make
    no call into ``repro.tensor.ops`` and register no finalizer."""

    def test_the_hook_sees_the_reference_chain(self, mesh, x0, monkeypatch):
        model, graph = model_for("geometric"), build_full_graph(mesh)
        with reference_path_calls(monkeypatch) as calls:
            rollout(model, graph, x0, 1, workspace=False)
        assert "ops.linear" in calls and "ops.scatter_add" in calls

    @pytest.mark.parametrize("kind", ["geometric", "full"])
    def test_single_rank_step_calls_no_tensor_op(self, mesh, x0, kind,
                                                 monkeypatch):
        model, graph = model_for(kind), build_full_graph(mesh)
        arena = InferenceArena()

        def steps():
            workspace_steps(model, graph, x0, 3, None, "n-a2a", False,
                            lambda step, state: None, arena=arena)

        steps()  # warm-up: plans compile, geometric features cache
        with reference_path_calls(monkeypatch) as calls:
            steps()
        assert calls == []

    def test_two_rank_halo_sync_calls_no_tensor_op(self, mesh, x0,
                                                   monkeypatch):
        model = model_for("geometric")
        dg = build_distributed_graph(mesh, auto_partition(mesh, 2))
        arenas = [InferenceArena(), InferenceArena()]

        def program(comm):
            lg = dg.local(comm.rank)
            workspace_steps(model, lg, x0[lg.global_ids], 3, comm, "n-a2a",
                            False, lambda step, state: None,
                            arena=arenas[comm.rank])

        ThreadWorld(2).run(program)
        with reference_path_calls(monkeypatch) as calls:
            ThreadWorld(2).run(program)
        assert calls == []


class TestPersistentWorkerArenas:
    """Sustained multi-batch serving must stop allocating: one warmed
    arena per serve worker replaces the re-warmed-per-batch arena."""

    def test_repeated_batches_reuse_one_warmed_arena(self, mesh, x0):
        from repro.runtime.api import RolloutRequest
        from repro.serve.cache import GraphAsset
        from repro.serve.executor import WorkerArenas, execute_batch

        model = model_for("geometric")
        graph = build_full_graph(mesh)
        asset = GraphAsset(key="g", graphs=(graph,))
        arenas = WorkerArenas()
        marks, last_frames = [], None
        for _ in range(6):
            frames = []
            requests = [
                RolloutRequest(model="m", graph="g", x0=x0, n_steps=3)
                for _ in range(2)
            ]
            execution = execute_batch(
                model, asset, requests,
                lambda i, step, state: (
                    frames.append(np.array(state, copy=True)) if i == 0 else None
                ),
                arenas=arenas,
            )
            marks.append(arenas.reallocations)
            last_frames = frames
        # the first two batches may allocate (pool warmup + recycle
        # lag); every later batch must draw everything from the pool
        growth = [b - a for a, b in zip(marks[2:], marks[3:])]
        assert growth == [0] * len(growth), marks
        assert execution.arena_reallocations == 0
        # ...and arena reuse never changes the bits
        reference = rollout(model, graph, x0, 3, workspace=True)
        assert_trajectories_bitwise(reference, last_frames)

    @pytest.mark.parametrize("residual", [False, True])
    def test_residual_and_direct_modes_both_go_quiet(self, mesh, x0,
                                                     residual):
        from repro.runtime.api import RolloutRequest
        from repro.serve.cache import GraphAsset
        from repro.serve.executor import WorkerArenas, execute_batch

        model = model_for("geometric")
        asset = GraphAsset(key="g", graphs=(build_full_graph(mesh),))
        arenas = WorkerArenas()
        marks = []
        for _ in range(5):
            execute_batch(
                model, asset,
                [RolloutRequest(model="m", graph="g", x0=x0, n_steps=2,
                                residual=residual)],
                lambda i, step, state: None,
                arenas=arenas,
            )
            marks.append(arenas.reallocations)
        growth = [b - a for a, b in zip(marks[2:], marks[3:])]
        assert growth == [0] * len(growth), marks

    def test_sustained_service_reports_zero_arena_growth(self, mesh, x0):
        """End to end through the worker pool: after warmup, the stats
        table's worker-arena reallocation counter freezes."""
        from repro.runtime import RolloutRequest, connect
        from repro.serve import ServeConfig

        model = model_for("geometric")
        graph = build_full_graph(mesh)
        config = ServeConfig(max_batch_size=1, max_wait_s=0.0, n_workers=1)
        with connect("pool://", config=config) as engine:
            engine.register_model("m", model)
            engine.register_graph("g", [graph])
            request = RolloutRequest(model="m", graph="g", x0=x0, n_steps=3)
            for _ in range(3):
                engine.rollout(request)
            warmed = engine.stats().arena_reallocations
            for _ in range(4):
                engine.rollout(request)
            settled = engine.stats().arena_reallocations
            assert settled == warmed, (warmed, settled)
            assert "worker-arena reallocations" in engine.stats_markdown()


def test_fast_rollout_output_buffers_are_independent(mesh, x0):
    """Returned states must not alias pooled (reused) memory."""
    model = model_for("geometric")
    graph = build_full_graph(mesh)
    states = rollout(model, graph, x0, 4, workspace=True)
    snapshot = [s.copy() for s in states]
    # run another rollout: if states aliased pool buffers they would
    # be overwritten now
    rollout(model, graph, x0, 4, workspace=True)
    for a, b in zip(states, snapshot):
        np.testing.assert_array_equal(a, b)
