"""The inference service: registry + cache + queue + worker pool.

:class:`InferenceService` is the in-process serving engine. Clients
submit rollout requests naming a registered model and graph; a pool of
worker threads pulls dynamically-coalesced batches off the queue,
executes them through :mod:`repro.serve.executor`, and streams frames
back through each request's :class:`~repro.serve.batching.RolloutHandle`.

Graph assets can be registered in-memory (a list of
:class:`~repro.graph.distributed.LocalGraph`, e.g. ``dg.locals``) or as
a directory of rank payloads written by
:func:`repro.graph.io.save_distributed_graph`; directory-backed assets
are reloadable after cache eviction, in-memory ones are pinned.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.gnn.architecture import MeshGNN
from repro.gnn.config import GNNConfig
from repro.graph.distributed import LocalGraph
from repro.graph.io import check_rank_set, load_rank_graphs
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, TraceBuffer, wall_from_perf
from repro.runtime.api import RolloutRequest, TrainRequest, TrainResult
from repro.serve.admission import AdmissionConfig, AdmissionController, QueueFull
from repro.serve.batching import RolloutHandle
from repro.serve.cache import GraphAsset, GraphCache
from repro.serve.executor import WorkerArenas, execute_batch, execute_train_job
from repro.serve.metrics import (
    RequestMetrics,
    ServeStats,
    declare,
    stats_markdown,
)
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import ScheduledQueue

if TYPE_CHECKING:  # serve must not import ensemble at module load
    from repro.ensemble.api import EnsembleRequest
    from repro.ensemble.driver import EnsembleHandle


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving engine.

    ``max_wait_s`` is the dynamic-batching window: how long a batch
    collector lingers for more same-key requests before executing a
    partial batch. ``0`` disables coalescing-by-waiting (a batch still
    forms from requests that are already queued).

    ``request_timeout_s`` (> 0) bounds how long a caller waits for a
    request's result.

    ``max_queue_depth`` and ``default_deadline_s`` configure admission
    control (see :mod:`repro.serve.admission`): submissions beyond the
    depth cap are shed with :class:`~repro.serve.admission.QueueFull`,
    and queued requests older than their deadline are expired at
    dequeue. Both default to off (unbounded queue, no deadline).

    Dispatch is the per-key-lane scheduler
    (:mod:`repro.serve.scheduler`): disjoint keys overlap across
    workers, earliest-deadline-first lane choice with a starvation
    bound (:data:`~repro.serve.scheduler.MAX_LANE_SKIPS`), one collector
    per key. ``affinity`` makes a lane sticky to the worker whose arena
    it warmed (tiled replicas are cached per asset and float32 replicas
    process-wide, so the arena is a worker's only warm state), with
    work-stealing when that worker is busy. It never changes trajectory
    bits, only which worker runs which batch when.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.005
    n_workers: int = 1
    request_timeout_s: float = 120.0
    max_queue_depth: int | None = None
    default_deadline_s: float | None = None
    affinity: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if not self.request_timeout_s > 0:
            raise ValueError("request_timeout_s must be > 0")
        # delegate validation of the admission knobs
        AdmissionConfig(self.max_queue_depth, self.default_deadline_s)

    @property
    def admission(self) -> AdmissionConfig:
        """The admission policy induced by this config."""
        return AdmissionConfig(self.max_queue_depth, self.default_deadline_s)


class InferenceService:
    """Batched surrogate-inference engine (start/stop or context manager).

    >>> # doctest-style sketch; see examples/serving_demo.py for a run
    >>> # with InferenceService(ServeConfig(max_batch_size=4)) as svc:
    >>> #     svc.register_model("m", model)
    >>> #     svc.register_graph("g", dg.locals)
    >>> #     states = svc.submit(RolloutRequest("m", "g", x0, 5)).result().states
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        # the one storage of every number the service reports: each
        # recorder below updates its series in it, stats() is its view
        self._metrics, self._m = declare()
        self.registry = ModelRegistry(metrics=self._metrics)
        self.cache = GraphCache(metrics=self._metrics)
        self._admission = AdmissionController(
            self.config.admission, metrics=self._metrics
        )
        self.trace = TraceBuffer()
        self._queue = self._make_queue()
        self._graph_dirs: dict[str, Path] = {}
        self._pinned_graphs: dict[str, tuple[LocalGraph, ...]] = {}
        self._workers: list[threading.Thread] = []
        self._started = False
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def _make_queue(self) -> ScheduledQueue:
        return ScheduledQueue(
            self._admission,
            trace=self.trace,
            affinity=self.config.affinity,
            metrics=self._metrics,
            request_timeout_s=self.config.request_timeout_s,
        )

    def start(self) -> "InferenceService":
        with self._lock:
            if self._started:
                return self
            if self._queue.closed:
                # restart after stop(): workers need a live queue. Its
                # counters live in the registry, so stats span the
                # service lifetime; the drained queue's lanes read 0
                self._queue._publish_levels()
                self._queue = self._make_queue()
            self._started = True
            for i in range(self.config.n_workers):
                t = threading.Thread(
                    target=self._worker_loop, args=(i,),
                    name=f"serve-worker{i}", daemon=True,
                )
                t.start()
                self._workers.append(t)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Drain pending requests, then stop the workers."""
        self._queue.close()
        for t in self._workers:
            t.join(timeout=timeout)
        self._workers.clear()
        with self._lock:
            self._started = False

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- asset registration --------------------------------------------------

    def register_model(self, name: str, model: MeshGNN) -> None:
        self.registry.register_model(name, model)

    def register_checkpoint(
        self,
        name: str,
        path: str | Path,
        expect_config: GNNConfig | None = None,
    ) -> None:
        self.registry.register_checkpoint(name, path, expect_config)

    def register_graph(self, key: str, graphs: Sequence[LocalGraph]) -> None:
        """Pin an in-memory partitioned graph (e.g. ``dg.locals``).

        The graphs must be a whole world (ranks ``0..R-1`` of one
        ``R``-rank partition covering every global node) — anything
        else raises ``ValueError`` here, not at the first request.
        Re-registering a key replaces the asset: any cached copy is
        evicted so subsequent requests see the new graph.
        """
        if not graphs:
            raise ValueError("graphs must be non-empty")
        check_rank_set(graphs)
        self._graph_dirs.pop(key, None)
        self._pinned_graphs[key] = tuple(graphs)
        self.cache.evict(key)

    def register_graph_dir(self, key: str, directory: str | Path) -> None:
        """Register an on-disk graph directory (reloadable on eviction).

        Rank payloads already in the directory are loaded and admitted
        now, so a set that is not a whole world raises ``ValueError``
        here (:func:`repro.graph.io.check_rank_set`); an empty directory
        is read at the first request. Re-registering a key replaces the
        asset: any cached copy is evicted so subsequent requests see the
        new graph.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"graph directory {directory} does not exist")
        started = time.perf_counter()
        graphs = (
            load_rank_graphs(directory)
            if any(directory.glob("graph_rank*.npz")) else None
        )
        load_s = time.perf_counter() - started
        self._pinned_graphs.pop(key, None)
        self._graph_dirs[key] = directory
        self.cache.evict(key)
        if graphs is not None:
            self.cache.put(key, graphs, load_s=load_s)

    def graph_keys(self) -> list[str]:
        return sorted(set(self._pinned_graphs) | set(self._graph_dirs))

    def asset(self, key: str) -> GraphAsset:
        """Resolve a registered graph key to its (cached) asset.

        Thread-safe; loads directory-backed assets through the cache on
        a miss. Raises :class:`KeyError` for unknown keys.
        """
        self._require_graph(key)
        pinned = self._pinned_graphs.get(key)
        if pinned is not None:
            return self.cache.get_or_load(key, lambda: pinned)
        directory = self._graph_dirs[key]
        return self.cache.get_or_load(key, lambda: load_rank_graphs(directory))

    def _require_graph(self, key: str) -> None:
        """Raise the typed :class:`KeyError` for an unregistered graph key."""
        if key not in self._pinned_graphs and key not in self._graph_dirs:
            raise KeyError(
                f"no graph registered under {key!r}; known: {self.graph_keys()}"
            )

    # -- request API ---------------------------------------------------------

    def submit(
        self, request: RolloutRequest | EnsembleRequest
    ) -> RolloutHandle | EnsembleHandle:
        """Enqueue one typed request → its engine future.

        The one way in for every front end (the engine API, the
        transport handler): a :class:`~repro.runtime.api.RolloutRequest`
        gets a :class:`~repro.serve.batching.RolloutHandle`, an
        :class:`~repro.ensemble.api.EnsembleRequest` the reducing
        :class:`~repro.ensemble.driver.EnsembleHandle`. Engine defaults
        are resolved here: a request with ``halo_mode=None`` gets
        ``n-a2a``, one with ``deadline_s=None`` gets
        ``config.default_deadline_s``. Raises
        :class:`~repro.serve.admission.QueueFull` when the queue is at
        its configured cap.

        An ensemble decomposes into M member rollouts submitted
        *atomically* (one admission decision for M queue slots — all
        or nothing, so a large ensemble sheds instead of starving the
        cap); the scheduler then tiles them into at most
        ``max_batch_size``-member batches like any other same-key
        burst. Its handle runs the lockstep reduction in the
        consumer's thread, streaming bounded
        :class:`~repro.ensemble.api.SummaryFrame`\\ s.
        """
        if not self._started:
            raise RuntimeError("service is not started (use start() or `with`)")
        return self._submit(request)

    def _submit(self, request) -> RolloutHandle | EnsembleHandle:
        """:meth:`submit` without the liveness check (what
        :meth:`_serve_inline` needs: it never starts workers).

        Fails fast on unknown asset names, fills engine defaults, then
        enqueues the rollouts the request decomposes into — itself, or
        an ensemble's perturbed members — under one admission decision.
        """
        self.registry.get(request.model)
        self._require_graph(request.graph)
        request = request.resolved(
            self._admission.effective_deadline_s(request.deadline_s)
        )
        if isinstance(request, RolloutRequest):
            return self._admit(request, [request])[0]
        from repro.ensemble.driver import EnsembleHandle

        perturb_at = time.perf_counter()
        members = request.member_requests()
        self.trace.record_span(
            request.trace_id, "perturb", "server",
            wall_from_perf(perturb_at), time.perf_counter() - perturb_at,
            members=len(members), seed=request.perturbation.seed,
        )
        handles = self._admit(request, members, members=len(members))
        with self._metrics.atomic():
            self._m["ensemble_requests"].inc()
            self._m["ensemble_members"].inc(len(members))
            self._m["ensemble_chunks"].inc(
                -(-len(members) // self.config.max_batch_size)
            )
        return EnsembleHandle(
            request, handles,
            timeout_s=self.config.request_timeout_s,
            trace=self.trace,
            on_outcome=self._record_ensemble_outcome,
        )

    def _record_ensemble_outcome(self, blew_up: bool, early_stopped: bool) -> None:
        with self._metrics.atomic():
            self._m["ensemble_blow_ups"].inc(int(blew_up))
            self._m["ensemble_early_stops"].inc(int(early_stopped))

    def _admit(self, request, rollouts: list, **attrs) -> list[RolloutHandle]:
        """Enqueue ``rollouts`` under ONE admission decision → handles.

        The ``admission`` span says how it went (``status="failed"``
        when the depth cap shed them).
        """
        admitted_at = time.perf_counter()

        def span(**outcome) -> None:
            self.trace.record_span(
                request.trace_id, "admission", "server",
                wall_from_perf(admitted_at),
                time.perf_counter() - admitted_at,
                model=request.model, graph=request.graph, **attrs, **outcome,
            )

        try:
            handles = self._queue.submit_many(rollouts)
        except QueueFull:
            span(status="failed", reason="queue_full")
            raise
        span()
        return handles

    def _serve_inline(self, request) -> RolloutHandle | EnsembleHandle:
        """Serve one rollout or ensemble on the *calling* thread.

        What ``local://`` is: the request is enqueued like any other,
        then this thread runs the worker loop's own step — collect a
        batch, :meth:`_execute` it — until the request is served or no
        lane is grantable, so an inline request is batched, executed,
        measured and traced by the code a pooled one is. Needs no
        started workers. Safe from several threads at once: a caller
        may execute another caller's request (same-key submissions
        coalesce); that one's handle then finishes when the batch does.
        """
        handle = self._submit(request)
        while not handle.done and (batch := self._queue._poll_batch(
            self.config.max_batch_size, self.config.max_wait_s
        )) is not None:
            self._execute(batch)
        return handle

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self, worker_id: int = 0) -> None:
        # one persistent warmed arena per worker: batches re-use the
        # pooled buffers instead of re-warming a fresh arena each
        arenas = WorkerArenas()
        while (batch := self._queue.next_batch(
            self.config.max_batch_size, self.config.max_wait_s,
            worker_id=worker_id,
        )) is not None:
            self._execute(batch, arenas)

    def _execute(
        self,
        batch: list[tuple[RolloutRequest, RolloutHandle]],
        arenas: WorkerArenas | None = None,
    ) -> None:
        requests = [req for req, _ in batch]
        handles = [h for _, h in batch]
        dequeued = time.perf_counter()
        try:
            model = self.registry.get(requests[0].model)
            asset = self.asset(requests[0].graph)

            def dispatch(i: int, step: int, state: np.ndarray) -> None:
                handles[i]._push_frame(state)

            execution = execute_batch(
                model, asset, requests, dispatch, arenas=arenas
            )
        except BaseException as exc:  # noqa: BLE001 - failures go to clients
            failed_at = time.perf_counter()
            for req in requests:
                self.trace.record_span(
                    req.trace_id, "execute", "server",
                    wall_from_perf(dequeued), failed_at - dequeued,
                    status="failed", model=req.model, graph=req.graph,
                    error=repr(exc),
                )
            for h in handles:
                h._finish(exc)
            return
        finished = time.perf_counter()
        self.trace.record_span(
            requests[0].trace_id, "tile", "server",
            wall_from_perf(dequeued), execution.tile_s,
            hits=execution.tile_hits, misses=execution.tile_misses,
            batch_size=execution.batch_size,
        )
        for req in requests:
            self.trace.record_span(
                req.trace_id, "queue", "server",
                wall_from_perf(req.submitted_at),
                dequeued - req.submitted_at,
                model=req.model, graph=req.graph,
            )
            self.trace.record_span(
                req.trace_id, "execute", "server",
                wall_from_perf(dequeued), finished - dequeued,
                model=req.model, graph=req.graph,
                batch_size=execution.batch_size,
                world_size=execution.world_size,
                n_steps=req.n_steps,
            )
        n = execution.batch_size
        waits = [dequeued - req.submitted_at for req in requests]
        latencies = [finished - req.submitted_at for req in requests]
        m = self._m
        with self._metrics.atomic():  # one batch's counters land together
            m["requests"].inc(n, model=requests[0].model, graph=requests[0].graph)
            m["batches"].inc()
            m["steps"].inc(execution.n_steps)
            m["mean_batch_size*requests"].inc(n * n)
            m["max_batch_size"].set_max(n)
            m["mean_queue_wait_s*requests"].inc(sum(waits))
            m["mean_latency_s*requests"].inc(sum(latencies))
            m["max_latency_s"].set_max(max(latencies))
            m["tile_hits"].inc(execution.tile_hits)
            m["tile_misses"].inc(execution.tile_misses)
            m["arena_reallocations"].inc(execution.arena_reallocations)
            m["arena_bytes_high_water"].set_max(execution.arena_nbytes)
            m["f32_batches"].inc(int(execution.f32))
            m["scheduler.warm_key_batches"].inc(int(execution.warm_key))
        # recorded before the handles finish: a client holding its
        # result already finds its request in stats()
        for (req, handle), wait_s, latency_s in zip(batch, waits, latencies):
            handle.metrics = RequestMetrics(
                request_id=req.request_id,
                model=req.model,
                graph=req.graph,
                world_size=execution.world_size,
                batch_size=n,
                n_steps=req.n_steps,
                queue_wait_s=wait_s,
                exec_s=execution.exec_s,
                latency_s=latency_s,
            )
            handle._finish()

    # -- training jobs -------------------------------------------------------

    def execute_train(self, request: TrainRequest) -> TrainResult:
        """Run one :class:`~repro.runtime.api.TrainRequest` to completion.

        Synchronous (the caller — typically
        :class:`~repro.runtime.pooled.PooledEngine` — owns scheduling);
        the registered model is read, never mutated, so training jobs
        are safe alongside concurrent inference batches. Returns the
        runtime-layer :class:`~repro.runtime.api.TrainResult`; the
        job's wall time lands in the stats table (``train jobs``).
        """
        model = self.registry.get(request.model)
        asset = self.asset(request.graph)
        request = request.resolved()
        result = execute_train_job(
            model, asset, request, timeout=self.config.request_timeout_s
        )
        with self._metrics.atomic():
            self._m["train_jobs"].inc()
            self._m["train_s"].inc(result.train_s)
        return result

    # -- stats ---------------------------------------------------------------

    def _collect(self) -> MetricsRegistry:
        """The live registry, its level gauges freshly written."""
        for owner in (self._queue, self.cache, self.registry):
            owner._publish_levels()
        return self._metrics

    def stats(self) -> ServeStats:
        return ServeStats.from_registry(self._collect())

    def stats_markdown(self) -> str:
        return stats_markdown(self.stats())

    # -- observability -------------------------------------------------------

    def get_trace(self, trace_id: str) -> list[Span]:
        """All spans recorded for one trace, sorted by start time."""
        return self.trace.trace(trace_id)

    def metrics_registry(self) -> MetricsRegistry:
        """A point-in-time copy of the service's metrics registry.

        The caller's to relabel and merge; served over the wire by the
        ``metrics`` op and over HTTP by ``--metrics-port``
        (:mod:`repro.obs.http`).
        """
        return self._collect().relabel()
