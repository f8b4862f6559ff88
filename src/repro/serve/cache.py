"""LRU cache of partitioned graph assets.

Partitioning a mesh and constructing halo plans is far more expensive
than a single surrogate step, so the serving layer loads each
partitioned graph once — through :mod:`repro.graph.io` when the asset
lives on disk — and keeps it resident. The cache is bounded by entry
count (:data:`MAX_ENTRIES`), and each asset by its tile sizes
(:data:`MAX_TILE_VARIANTS`); the resident bytes (byte-accurate
``nbytes`` sums over every array an asset holds, including compiled
aggregation plans, the stitched whole-world graph and cached tiled
replicas) are reported, not budgeted. Eviction is
least-recently-used. Every eviction logs — and the stats snapshot
accumulates — the evicted asset's *reload cost* (loader wall time plus
aggregation-plan build time), so a churning cache explains what
re-admission will pay.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.graph.distributed import LocalGraph
from repro.graph.io import check_rank_set, load_rank_graphs
from repro.obs.registry import MetricsRegistry
from repro.serve.metrics import CacheStats, ServeStats, declare

_log = logging.getLogger("repro.serve.cache")

#: Resident assets kept (beyond it, the least recently used is evicted).
MAX_ENTRIES = 8

#: Distinct tiled batch sizes kept per asset (beyond it, stale batch
#: sizes are dropped oldest-first). Sustained load settles on a few
#: sizes; the bound keeps a pathological size churn from hoarding memory.
MAX_TILE_VARIANTS = 8


def _graph_nbytes(g: LocalGraph) -> int:
    """Resident bytes of one rank payload: exact ``nbytes`` sums over
    every array the graph holds — its dataclass fields, the halo plan's
    index arrays, and whatever has been lazily cached on the instance
    (:meth:`~repro.graph.distributed.LocalGraph.cached_nbytes`, owned
    by the graph module so new caches there stay counted here)."""
    total = (
        g.global_ids.nbytes
        + g.pos.nbytes
        + g.edge_index.nbytes
        + g.edge_degree.nbytes
        + g.node_degree.nbytes
        + g.halo.halo_to_local.nbytes
    )
    total += sum(idx.nbytes for idx in g.halo.spec.send_indices.values())
    return total + g.cached_nbytes()


@dataclass(frozen=True)
class GraphAsset:
    """A resident, ready-to-serve partitioned graph (all ranks).

    Immutable value object: safe to hand to any number of concurrent
    workers, which only read the rank graphs. Determinism: the asset is
    exactly the graphs the loader produced — the cache layer never
    transforms them, so cache hits and misses serve identical bits.
    ``plan_build_s`` records the wall seconds admission spent compiling
    the rank graphs' aggregation plans (0.0 when they were already
    compiled — plans are cached on the graph objects themselves, so
    re-admitting the same graphs never re-sorts). ``load_s`` records
    what the loader itself cost (reading rank payloads, or the original
    partition + halo-plan construction for in-memory admissions timed
    through :meth:`GraphCache.get_or_load`); together they are the
    asset's :attr:`reload_cost_s` — what an eviction will make the next
    request on this key pay again.

    The asset also owns the cache of block-diagonal replicas
    (:meth:`tiled`): sustained-load serving steps one stitched whole-world
    graph (:func:`repro.serve.tiling.stitch_rank_graphs` — built once,
    on the first batch) tiled once per batch size, and training jobs tile
    each rank graph; the replicas and their composed aggregation plans
    are re-used instead of re-tiled and re-composed every batch. The tile
    store (lock-guarded) and the two cached row maps are the only mutable
    state, and pure cache — a hit and a miss return bitwise-identical
    replicas, and a race computes the same row map twice.
    """

    key: str
    graphs: tuple[LocalGraph, ...]
    plan_build_s: float = 0.0
    load_s: float = 0.0
    _tiles: dict = field(default_factory=dict, repr=False, compare=False)
    _tiles_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_rank_set(self.graphs)  # stitching and frames need a whole world

    @property
    def size(self) -> int:
        """World size ``R`` of the asset (pure read)."""
        return len(self.graphs)

    @property
    def n_global(self) -> int:
        """Global node count (1 + the largest global ID present)."""
        return 1 + max(int(g.global_ids[-1]) for g in self.graphs)

    @cached_property
    def stitched_rows(self) -> np.ndarray:
        """The global ID of every row of the stitched graph (rank after
        rank): ``x0[stitched_rows]`` is a request's stitched state."""
        return np.concatenate([g.global_ids for g in self.graphs])

    @cached_property
    def frame_rows(self) -> np.ndarray:
        """For every global node, the stitched row a frame reads: the
        copy on the highest rank holding the node (rank order, later
        ranks overwrite — the frame a per-rank world assembles)."""
        rows = np.empty(self.n_global, dtype=np.int64)
        rows[self.stitched_rows] = np.arange(len(self.stitched_rows))
        return rows

    def tiled(
        self, batch: int, rank: int | None = None
    ) -> tuple[LocalGraph, bool]:
        """The ``batch``-fold replica of rank ``rank``'s graph, or of the
        stitched whole world when ``rank`` is None; cached per asset.

        Returns ``(tiled_graph, was_hit)``. A rank graph at ``batch == 1``
        is returned itself (no replication happens, counted as a hit); a
        one-rank world is its own stitch. The stitched graph is kept
        under ``(1, None)`` and never evicted; its tiles are built from
        it. Thread safety: any number of workers may call concurrently; a
        race on the same key builds twice and keeps the first (the
        replicas are bitwise identical, so which one wins is
        unobservable). Determinism: caching changes *when* tiling work
        happens, never the replica's bits — stitching and
        :func:`repro.serve.tiling.tile_local_graph` are pure functions
        of ``(graphs, batch)``.
        """
        if rank is None and self.size == 1:
            rank = 0  # a one-rank world is its own stitch
        if batch == 1 and rank is not None:
            return self.graphs[rank], True
        key = (batch, rank)
        with self._tiles_lock:
            cached = self._tiles.get(key)
            if cached is not None:
                return cached, True
        # cycle-free lazy import
        from repro.serve.tiling import stitch_rank_graphs, tile_local_graph

        if rank is not None:
            built = tile_local_graph(self.graphs[rank], batch)
        elif batch == 1:
            built = stitch_rank_graphs(self.graphs)
        else:
            built = tile_local_graph(self.tiled(1)[0], batch)
        with self._tiles_lock:
            kept = self._tiles.setdefault(key, built)
            self._evict_stale_tiles(batch)
        return kept, False

    def _evict_stale_tiles(self, current_batch: int) -> None:
        # caller holds the tiles lock; drop oldest non-current batch
        # sizes until at most MAX_TILE_VARIANTS distinct sizes remain
        # (batch 1 holds only the stitched graph, which stays)
        sizes: list[int] = []
        for b, _ in self._tiles:
            if b > 1 and b not in sizes:
                sizes.append(b)
        while len(sizes) > MAX_TILE_VARIANTS:
            victim = next(b for b in sizes if b != current_batch)
            sizes.remove(victim)
            for k in [k for k in self._tiles if k[0] == victim]:
                del self._tiles[k]

    @property
    def reload_cost_s(self) -> float:
        """Wall seconds eviction throws away: loader time plus
        aggregation-plan compile time (tiled replicas re-tile lazily
        and are not counted — their plans compose, they never re-sort)."""
        return self.load_s + self.plan_build_s

    @property
    def nbytes(self) -> int:
        """Resident bytes, byte-accurate: ``nbytes`` sums over the
        arrays of every rank payload, compiled aggregation plans,
        per-graph cached features, the stitched graph with its row maps,
        and cached tiled replicas."""
        total = sum(_graph_nbytes(g) for g in self.graphs)
        with self._tiles_lock:
            tiles = list(self._tiles.values())
        total += sum(_graph_nbytes(g) for g in tiles)
        for name in ("stitched_rows", "frame_rows"):
            rows = self.__dict__.get(name)
            total += rows.nbytes if rows is not None else 0
        return total


class GraphCache:
    """LRU of at most :data:`MAX_ENTRIES` graph assets keyed by string.

    Thread safety: all methods may be called from any thread; one lock
    guards the LRU table, and :meth:`get_or_load` serializes loader
    runs so concurrent misses on one key load once. The hit / miss /
    eviction accounting is series in ``metrics`` (the service's
    registry; a cache built on its own gets a private one), updated
    under that lock. Determinism: the
    cache only stores and returns what loaders produce — eviction and
    reload change *when* work happens, never the served bits (directory
    loaders re-read the same ``.npz`` payloads exactly).
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self._assets: OrderedDict[str, GraphAsset] = OrderedDict()
        self._lock = threading.Lock()
        self._load_lock = threading.Lock()
        self._metrics, self._m = declare(metrics)

    # -- core ----------------------------------------------------------------

    def get(self, key: str) -> GraphAsset | None:
        """Return the asset (refreshing recency) or None on a miss."""
        with self._lock:
            asset = self._assets.get(key)
            if asset is None:
                self._m["cache.misses"].inc()
                return None
            self._assets.move_to_end(key)
            self._m["cache.hits"].inc()
            return asset

    def put(
        self, key: str, graphs: Sequence[LocalGraph], load_s: float = 0.0
    ) -> GraphAsset:
        """Insert (or replace) an asset and evict down to
        :data:`MAX_ENTRIES` (thread-safe; the returned asset is immutable).

        Admission precompiles each rank graph's aggregation plans
        (a no-op when already compiled, or while plans are globally
        disabled), so every request served from the asset reuses one
        compiled plan instead of re-sorting per request. ``load_s`` is
        what producing ``graphs`` cost the caller (recorded on the
        asset so eviction can report the reload price).
        """
        if not graphs:
            raise ValueError("asset must contain at least one rank graph")
        started = time.perf_counter()
        for g in graphs:
            _ = g.plans  # lazy compile; cached on the graph instance
        build_s = time.perf_counter() - started
        asset = GraphAsset(
            key=key, graphs=tuple(graphs), plan_build_s=build_s, load_s=load_s
        )
        with self._lock:
            self._assets[key] = asset
            self._assets.move_to_end(key)
            self._m["cache.plan_build_s"].inc(build_s)
            while len(self._assets) > MAX_ENTRIES:
                self._drop(next(iter(self._assets)))  # LRU; `key` is MRU
        return asset

    def get_or_load(
        self, key: str, loader: Callable[[], Sequence[LocalGraph]]
    ) -> GraphAsset:
        """Cache-through read: on a miss, run ``loader`` and admit it.

        Loads are serialized so concurrent misses on the same key run
        the (expensive) loader once; the losers of the race hit the
        freshly admitted asset instead. The loader's wall time is
        recorded as the asset's ``load_s`` (reload-cost accounting).
        """
        asset = self.get(key)
        if asset is not None:
            return asset
        with self._load_lock:
            with self._lock:
                raced = self._assets.get(key)
                if raced is not None:
                    self._assets.move_to_end(key)
                    self._m["cache.hits"].inc()
                    return raced
            started = time.perf_counter()
            graphs = loader()
            return self.put(key, graphs, load_s=time.perf_counter() - started)

    def load_directory(self, directory: str | Path) -> GraphAsset:
        """Load (or hit) the rank payloads of a graph directory, keyed by
        its resolved path (see :func:`repro.graph.io.load_rank_graphs`)."""
        directory = Path(directory)
        key = str(directory.resolve())
        return self.get_or_load(key, lambda: load_rank_graphs(directory))

    def evict(self, key: str) -> bool:
        """Drop one asset; returns whether it was resident (thread-safe)."""
        with self._lock:
            if key in self._assets:
                self._drop(key)
                return True
            return False

    def clear(self) -> None:
        """Evict everything (thread-safe; counted as evictions)."""
        with self._lock:
            for key in list(self._assets):
                self._drop(key)

    def _drop(self, key: str) -> None:
        # caller holds the lock; the single eviction path — counts the
        # eviction, accumulates the asset's reload cost, and logs it so
        # cache churn is explainable from the logs and the stats table
        asset = self._assets.pop(key)
        with self._metrics.atomic():
            self._m["cache.evictions"].inc()
            self._m["cache.evicted_reload_s"].inc(asset.reload_cost_s)
        _log.info(
            "evicted graph asset %r: %d resident bytes freed, reload cost "
            "%.2f ms (load %.2f ms + plan build %.2f ms)",
            key,
            asset.nbytes,
            asset.reload_cost_s * 1e3,
            asset.load_s * 1e3,
            asset.plan_build_s * 1e3,
        )

    # -- introspection -------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        """Residency test without touching recency (thread-safe)."""
        with self._lock:
            return key in self._assets

    def __len__(self) -> int:
        """Resident entry count (thread-safe point read)."""
        with self._lock:
            return len(self._assets)

    def keys(self) -> list[str]:
        """Keys in LRU → MRU order."""
        with self._lock:
            return list(self._assets)

    def _publish_levels(self) -> None:
        """Write the point-in-time gauges (entries, resident bytes).

        Levels are written by their owner when the registry is
        collected, under the owner's lock — resident bytes in
        particular grow outside the cache's sight, as assets tile.
        """
        with self._lock, self._metrics.atomic():
            self._m["cache.entries"].set(len(self._assets))
            self._m["cache.resident_bytes"].set(
                sum(a.nbytes for a in self._assets.values())
            )

    def stats(self) -> CacheStats:
        """The cache view of the registry recorded into."""
        self._publish_levels()
        return ServeStats.from_registry(self._metrics).cache
