"""Per-(asset, batch_size) tiled-graph cache: identity, bits, bounds."""

import numpy as np
import pytest

from repro.runtime.api import RolloutRequest
from repro.serve.cache import MAX_TILE_VARIANTS, GraphAsset
from repro.serve.executor import WorkerArenas, execute_batch
from repro.serve.tiling import tile_local_graph


@pytest.fixture()
def asset(dist_graph):
    for g in dist_graph.locals:
        g.plans  # compile once so tiles compose instead of re-sorting
    return GraphAsset(key="g4", graphs=tuple(dist_graph.locals))


def test_tiled_is_cached_per_batch_and_rank(asset):
    first, hit_first = asset.tiled(3, 0)
    again, hit_again = asset.tiled(3, 0)
    assert not hit_first and hit_again
    assert again is first  # the same object, not an equal rebuild
    other_rank, hit = asset.tiled(3, 1)
    assert not hit and other_rank is not first


def test_batch_one_returns_base_graph_as_hit(asset):
    g, hit = asset.tiled(1, 2)
    assert hit and g is asset.graphs[2]


def test_cached_tile_is_bitwise_the_fresh_tile(asset):
    cached, _ = asset.tiled(4, 0)
    fresh = tile_local_graph(asset.graphs[0], 4)
    np.testing.assert_array_equal(cached.edge_index, fresh.edge_index)
    np.testing.assert_array_equal(cached.global_ids, fresh.global_ids)
    np.testing.assert_array_equal(cached.halo.halo_to_local,
                                  fresh.halo.halo_to_local)


def test_tile_variants_are_bounded(asset):
    for batch in range(2, MAX_TILE_VARIANTS + 4):
        asset.tiled(batch, 0)
    sizes = {b for b, _ in asset._tiles}
    assert len(sizes) <= MAX_TILE_VARIANTS
    assert MAX_TILE_VARIANTS + 3 in sizes  # the newest size survives


def test_tiles_count_toward_asset_bytes(asset):
    base = asset.nbytes
    asset.tiled(6, 0)
    assert asset.nbytes > base


def test_execute_batch_reports_hits_after_first_batch(
    serve_model, asset, x0
):
    def requests(n):
        return [
            RolloutRequest(model="m", graph="g4", x0=x0, n_steps=1,
                           halo_mode="n-a2a")
            for _ in range(n)
        ]

    sink = lambda i, step, state: None  # noqa: E731
    # one lookup per batch, whatever the world size: the stitched graph
    first = execute_batch(serve_model, asset, requests(3), sink)
    assert (first.tile_misses, first.tile_hits) == (1, 0)
    second = execute_batch(serve_model, asset, requests(3), sink)
    assert (second.tile_misses, second.tile_hits) == (0, 1)
    frames: list = []
    third = execute_batch(
        serve_model, asset, requests(3),
        lambda i, step, state: frames.append((i, step, state)),
    )
    assert third.tile_hits == 1
    assert len(frames) == 6  # 3 requests x (x0 + 1 step)


@pytest.mark.parametrize("partitioned", [False, True])
def test_persistent_arenas_allocate_only_on_a_new_batch_shape(
    serve_model, asset, full_graph, x0, partitioned
):
    """What "allocation-free" means for a serve worker: one persistent
    ``WorkerArenas`` pays a warm-up once per (key, batch size) — every
    buffer of the tiled shapes — and nothing on any revisit, however the
    sizes interleave. A short run's reallocations-per-batch average is
    that warm-up amortised, not a leak."""
    if not partitioned:
        asset = GraphAsset(key="g1", graphs=(full_graph,))
    arenas = WorkerArenas()
    seen, revisits = set(), []
    for size in (1, 4, 1, 4, 2, 3, 1, 4):
        requests = [
            RolloutRequest(model="m", graph=asset.key, x0=x0, n_steps=2,
                           halo_mode="n-a2a")
            for _ in range(size)
        ]
        execution = execute_batch(
            serve_model, asset, requests, lambda i, step, state: None,
            arenas=arenas,
        )
        if size in seen:
            revisits.append(execution.arena_reallocations)
        else:
            assert execution.arena_reallocations > 0
        seen.add(size)
    assert revisits == [0, 0, 0, 0]
