"""Service-level behavior: validation, lifecycle, metrics, asset paths."""

import numpy as np
import pytest

from repro.gnn import save_checkpoint
from repro.graph.io import save_distributed_graph
from repro.runtime import RolloutRequest as Req
from repro.serve import (
    IncompatibleModel,
    InferenceService,
    ServeConfig,
    stats_markdown,
)
from repro.serve.registry import ModelNotFound


def rollout(svc, *args, **kwargs):
    """Submit one typed request and wait for its trajectory."""
    return svc.submit(Req(*args, **kwargs)).result().states


@pytest.fixture()
def service(serve_model, full_graph):
    with InferenceService(ServeConfig(max_batch_size=2, max_wait_s=0.0)) as svc:
        svc.register_model("m", serve_model)
        svc.register_graph("g", [full_graph])
        yield svc


def test_submit_requires_started(serve_model, full_graph):
    svc = InferenceService()
    svc.register_model("m", serve_model)
    svc.register_graph("g", [full_graph])
    with pytest.raises(RuntimeError, match="not started"):
        svc.submit(Req("m", "g", np.zeros((full_graph.n_local, 3)), 1))


def test_unknown_model_and_graph_fail_fast(service, x0):
    with pytest.raises(ModelNotFound):
        service.submit(Req("nope", "g", x0, 1))
    with pytest.raises(KeyError, match="no graph registered"):
        service.submit(Req("m", "nope", x0, 1))


def test_bad_x0_shape_surfaces_through_handle(service, x0):
    handle = service.submit(Req("m", "g", x0[:-1], 1))
    with pytest.raises(IncompatibleModel, match="x0 has shape"):
        handle.result(timeout=30.0)


def test_checkpoint_and_graph_dir_assets(serve_model, dist_graph, x0, tmp_path):
    ckpt = tmp_path / "m.npz"
    save_checkpoint(serve_model, ckpt)
    gdir = tmp_path / "graphs"
    save_distributed_graph(dist_graph, gdir)
    with InferenceService() as svc:
        svc.register_checkpoint("m", ckpt, expect_config=serve_model.config)
        svc.register_graph_dir("g", gdir)
        states = rollout(svc, "m", "g", x0, 2)
        assert len(states) == 3
        stats = svc.stats()
    # the rank payloads were loaded (and checked) at registration
    assert (stats.cache.misses, stats.cache.hits) == (0, 1)
    assert stats.registry.loads == 1
    # second service start against the same assets reloads cleanly
    with pytest.raises(FileNotFoundError):
        InferenceService().register_graph_dir("x", tmp_path / "missing")


def test_cache_hits_accumulate_across_requests(service, x0):
    for _ in range(3):
        rollout(service, "m", "g", x0, 1)
    stats = service.stats()
    assert stats.cache.misses == 1
    assert stats.cache.hits >= 2
    assert stats.cache.hit_rate > 0.5


def test_metrics_populated_per_request(service, x0):
    handle = service.submit(Req("m", "g", x0, 2))
    handle.result(timeout=30.0)
    m = handle.metrics
    assert m is not None
    assert m.n_steps == 2
    assert m.world_size == 1
    assert m.batch_size >= 1
    assert m.latency_s >= m.exec_s >= 0
    assert m.queue_wait_s >= 0


def test_stats_markdown_renders(service, x0):
    rollout(service, "m", "g", x0, 1)
    stats = service.stats()
    table = stats_markdown(stats)
    assert "| requests served | 1 |" in table
    assert "graph-cache hit rate" in table
    assert "plan_build_s" in table
    assert stats.cache.plan_build_s > 0.0  # admission compiled the plans


def test_stop_drains_pending_work(serve_model, full_graph, x0):
    svc = InferenceService(ServeConfig(max_batch_size=4, max_wait_s=0.0))
    svc.register_model("m", serve_model)
    svc.register_graph("g", [full_graph])
    svc.start()
    handles = [svc.submit(Req("m", "g", x0, 1)) for _ in range(4)]
    svc.stop()
    for h in handles:
        assert len(h.result(timeout=30.0).states) == 2


def test_reregistering_graph_key_invalidates_cache(serve_model, full_graph,
                                                   dist_graph, x0):
    with InferenceService() as svc:
        svc.register_model("m", serve_model)
        svc.register_graph("g", [full_graph])
        rollout(svc, "m", "g", x0, 1)  # caches the R=1 asset under "g"
        svc.register_graph("g", dist_graph.locals)
        rollout(svc, "m", "g", x0, 1)
        h = svc.submit(Req("m", "g", x0, 1))
        h.result(timeout=30.0)
        assert h.metrics.world_size == dist_graph.size  # new asset served
        assert svc.stats().cache.evictions == 1


def test_service_restarts_after_stop(serve_model, full_graph, x0):
    svc = InferenceService()
    svc.register_model("m", serve_model)
    svc.register_graph("g", [full_graph])
    svc.start()
    rollout(svc, "m", "g", x0, 1)
    svc.stop()
    svc.stop()  # idempotent
    with pytest.raises(RuntimeError, match="not started"):
        svc.submit(Req("m", "g", x0, 1))
    svc.start()
    assert len(rollout(svc, "m", "g", x0, 1)) == 2
    assert svc.stats().requests == 2
    svc.stop()


def test_multiple_workers_serve_distinct_keys(serve_model, full_graph,
                                              dist_graph, x0):
    cfg = ServeConfig(max_batch_size=4, max_wait_s=0.0, n_workers=2)
    with InferenceService(cfg) as svc:
        svc.register_model("m", serve_model)
        svc.register_graph("g1", [full_graph])
        svc.register_graph("g4", dist_graph.locals)
        h1 = svc.submit(Req("m", "g1", x0, 2))
        h4 = svc.submit(Req("m", "g4", x0, 2))
        s1 = h1.result(timeout=60.0).states
        s4 = h4.result(timeout=60.0).states
    for a, b in zip(s1, s4):
        assert np.allclose(a, b, atol=1e-12)
