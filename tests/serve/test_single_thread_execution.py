"""Every inference batch steps on the calling thread, and only whole
worlds are admitted.

A multi-rank asset is served as one stitched graph
(:func:`repro.serve.tiling.stitch_rank_graphs`), so executing a batch —
direct, inline through ``local://``, or as ensemble members — starts no
thread. The stitcher needs ranks ``0..R-1`` of one world covering every
global node; registration refuses anything else instead of serving
frames whose missing rows nobody computed.
"""

import dataclasses
import threading

import pytest

from repro.ensemble import EnsembleRequest, PerturbationSpec
from repro.graph import build_distributed_graph
from repro.graph.io import save_local_graph
from repro.mesh import auto_partition
from repro.runtime import RolloutRequest, connect
from repro.serve import InferenceService, ServeServer
from repro.serve.cache import GraphAsset
from repro.serve.executor import WorkerArenas, execute_batch


@pytest.fixture()
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started: list[str] = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.fixture(scope="module")
def two_rank(serve_mesh):
    return build_distributed_graph(serve_mesh, auto_partition(serve_mesh, 2))


def test_a_four_rank_batch_starts_no_thread(
    serve_model, dist_graph, x0, thread_starts
):
    asset = GraphAsset(key="g4", graphs=tuple(dist_graph.locals))
    frames: list = []
    execution = execute_batch(
        serve_model, asset,
        [RolloutRequest("m", "g4", x0, 2) for _ in range(3)],
        lambda i, step, state: frames.append((i, step)),
        arenas=WorkerArenas(),
    )
    assert execution.world_size == 4 and len(frames) == 9
    assert thread_starts == []


def test_local_rollouts_and_a_two_rank_ensemble_start_no_thread(
    serve_model, dist_graph, two_rank, x0, thread_starts
):
    with connect("local://") as engine:
        engine.register_model("m", serve_model)
        engine.register_graph("g4", dist_graph.locals)
        engine.register_graph("g2", two_rank.locals)
        states = engine.rollout(RolloutRequest("m", "g4", x0, 2)).states
        frames = engine.ensemble(EnsembleRequest(
            "m", "g2", x0, n_steps=2, n_members=3,
            perturbation=PerturbationSpec(seed=5, noise_scale=1e-3),
        )).frames
    assert len(states) == 3 and [f.step for f in frames] == [0, 1, 2]
    assert thread_starts == []


def lone_rank(two_rank):
    """Rank 1 of a 2-rank partition, alone."""
    return [two_rank.local(1)]


def renumbered_rank(two_rank):
    """Rank 1 relabelled as a 1-rank world: ranks and size agree, but its
    global IDs leave holes that no rank computes."""
    return [dataclasses.replace(two_rank.local(1), rank=0, size=1)]


PARTIAL_WORLDS = [lone_rank, renumbered_rank]


@pytest.mark.parametrize("partial", PARTIAL_WORLDS)
def test_register_graph_rejects_a_partial_world(two_rank, partial):
    svc = InferenceService()
    with pytest.raises(ValueError):
        svc.register_graph("part", partial(two_rank))
    assert "part" not in svc.graph_keys()


@pytest.mark.parametrize("partial", PARTIAL_WORLDS)
def test_register_graph_dir_rejects_a_partial_world(
    two_rank, partial, tmp_path
):
    for g in partial(two_rank):
        save_local_graph(g, tmp_path / f"graph_rank{g.rank:05d}.npz")
    svc = InferenceService()
    with pytest.raises(ValueError):
        svc.register_graph_dir("part", tmp_path)
    assert "part" not in svc.graph_keys()


@pytest.mark.parametrize("partial", PARTIAL_WORLDS)
def test_graph_upload_of_a_partial_world_is_a_bad_request(two_rank, partial):
    with InferenceService() as svc, ServeServer(svc) as server:
        with connect(f"tcp://{server.endpoint}") as engine:
            with pytest.raises(ValueError):  # the bad_request code
                engine.register_graph("part", partial(two_rank))
        assert "part" not in svc.graph_keys()

