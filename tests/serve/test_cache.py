"""GraphCache: LRU eviction, hit/miss accounting, disk path."""

import pytest

from repro.graph.io import save_distributed_graph
from repro.serve import GraphCache
from repro.serve.cache import MAX_ENTRIES


@pytest.fixture()
def rank_graphs(dist_graph):
    return list(dist_graph.locals)


def test_miss_then_hit(full_graph):
    cache = GraphCache()
    assert cache.get("g") is None
    cache.put("g", [full_graph])
    asset = cache.get("g")
    assert asset is not None and asset.size == 1
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (1, 1)
    assert stats.hit_rate == 0.5


def test_lru_eviction_order(full_graph):
    cache = GraphCache()
    for i in range(MAX_ENTRIES):
        cache.put(f"k{i}", [full_graph])
    assert cache.get("k0") is not None  # refresh: k1 is now LRU
    cache.put("new", [full_graph])
    assert len(cache) == MAX_ENTRIES
    assert "k1" not in cache
    assert "k0" in cache and "new" in cache
    assert cache.stats().evictions == 1


def test_get_or_load_runs_loader_once(full_graph):
    cache = GraphCache()
    calls = []

    def loader():
        calls.append(1)
        return [full_graph]

    a1 = cache.get_or_load("k", loader)
    a2 = cache.get_or_load("k", loader)
    assert a1 is a2
    assert len(calls) == 1
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (1, 1)


def test_load_directory_hits_on_reuse(dist_graph, tmp_path):
    directory = tmp_path / "graphs"
    save_distributed_graph(dist_graph, directory)
    cache = GraphCache()
    asset = cache.load_directory(directory)
    assert asset.size == dist_graph.size
    assert asset.n_global == dist_graph.n_global_nodes
    again = cache.load_directory(directory)
    assert again is asset
    assert cache.stats().hits == 1


def test_asset_nbytes_positive(rank_graphs):
    asset = GraphCache().put("k", rank_graphs)
    assert asset.nbytes > 0


def test_explicit_evict_and_clear(full_graph):
    cache = GraphCache()
    cache.put("a", [full_graph])
    assert cache.evict("a") is True
    assert cache.evict("a") is False
    cache.put("b", [full_graph])
    cache.clear()
    assert len(cache) == 0


def test_empty_asset_rejected():
    with pytest.raises(ValueError):
        GraphCache().put("k", [])


def test_admission_compiles_and_accounts_plans(rank_graphs):
    for g in rank_graphs:
        g.__dict__.pop("_plans", None)
    bare = sum(
        g.global_ids.nbytes + g.pos.nbytes + g.edge_index.nbytes
        + g.edge_degree.nbytes + g.node_degree.nbytes
        + g.halo.halo_to_local.nbytes
        + sum(i.nbytes for i in g.halo.spec.send_indices.values())
        for g in rank_graphs
    )
    cache = GraphCache()
    asset = cache.put("g", rank_graphs)
    # admission compiled the plans...
    assert all(g.__dict__.get("_plans") is not None for g in rank_graphs)
    assert asset.plan_build_s > 0.0
    # ...and their bytes count toward the cache budget
    assert asset.nbytes > bare
    stats = cache.stats()
    assert stats.plan_build_s == pytest.approx(asset.plan_build_s)


def test_readmitting_compiled_graphs_skips_plan_build(rank_graphs):
    for g in rank_graphs:  # force a real compile on the first admission
        g.__dict__.pop("_plans", None)
    cache = GraphCache()
    first = cache.put("a", rank_graphs)
    compiled = [g.__dict__["_plans"] for g in rank_graphs]
    cache.put("b", rank_graphs)  # plans already on the graphs
    # re-admission must reuse the SAME plan objects (identity, not a
    # timing comparison — a recompile would swap the cached instances)
    assert all(
        g.__dict__["_plans"] is p for g, p in zip(rank_graphs, compiled)
    )
    assert cache.stats().plan_build_s >= first.plan_build_s


class TestByteAccurateSizingAndReloadCost:
    """Byte-accurate nbytes sums + eviction reload-cost accounting."""

    def test_nbytes_counts_lazily_cached_arrays(self, full_graph):
        full_graph.__dict__.pop("_inv_edge_degree", None)
        full_graph.__dict__.pop("_geometric_edge_attr", None)
        asset = GraphCache().put("k", [full_graph])
        before = asset.nbytes
        # materialize the per-instance caches the hot loop uses
        _ = full_graph.inv_edge_degree
        _ = full_graph.geometric_edge_attr()
        after = asset.nbytes
        expected = (
            full_graph.__dict__["_inv_edge_degree"].nbytes
            + full_graph.__dict__["_geometric_edge_attr"].nbytes
        )
        assert after - before == expected

    def test_nbytes_counts_tiled_replicas_exactly(self, full_graph):
        asset = GraphCache().put("k", [full_graph])
        base = asset.nbytes
        tiled, _ = asset.tiled(3, 0)
        grown = asset.nbytes
        from repro.serve.cache import _graph_nbytes

        assert grown - base == _graph_nbytes(tiled)

    def test_loader_time_recorded_and_charged_on_eviction(self, full_graph):
        import time as time_mod

        cache = GraphCache()

        def slow_loader():
            time_mod.sleep(0.01)
            return [full_graph]

        asset = cache.get_or_load("a", slow_loader)
        assert asset.load_s >= 0.01
        assert asset.reload_cost_s >= asset.load_s
        for i in range(MAX_ENTRIES):
            cache.put(f"b{i}", [full_graph])  # the last evicts "a"
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.evicted_reload_s >= asset.load_s

    def test_explicit_evict_and_clear_charge_reload_cost(self, full_graph):
        cache = GraphCache()
        cache.get_or_load("a", lambda: [full_graph])
        cache.get_or_load("b", lambda: [full_graph])
        cache.evict("a")
        after_evict = cache.stats().evicted_reload_s
        assert after_evict >= 0.0
        cache.clear()
        assert cache.stats().evicted_reload_s >= after_evict
        assert cache.stats().evictions == 2

    def test_eviction_is_logged_with_reload_cost(self, full_graph, caplog):
        import logging

        cache = GraphCache()
        cache.get_or_load("k", lambda: [full_graph])
        with caplog.at_level(logging.INFO, logger="repro.serve.cache"):
            cache.evict("k")
        assert any("reload cost" in r.message for r in caplog.records)

    def test_reload_cost_reaches_the_stats_table(self, full_graph):
        from repro.obs.registry import MetricsRegistry
        from repro.serve.metrics import ServeStats, stats_markdown

        metrics = MetricsRegistry()
        cache = GraphCache(metrics=metrics)
        cache.get_or_load("k", lambda: [full_graph])
        cache.evict("k")
        stats = ServeStats.from_registry(metrics)
        assert stats.cache == cache.stats()
        assert stats.cache.evictions == 1
        assert "evicted reload cost (ms)" in stats_markdown(stats)
