"""ClusterEngine: shard-routed execution over N backend engines.

The paper scales one consistent surrogate across ranks *inside* a
server; this layer scales the serving system across *servers*. A
:class:`ClusterEngine` implements the same
:class:`~repro.runtime.api.Engine` protocol as every other engine —
``connect("cluster://h1:p1,h2:p2,...")`` returns one — and routes each
typed request to a backend shard:

* **Placement** is consistent-hash by ``(model, graph)``
  (:mod:`repro.cluster.placement`), so each asset's registry entry,
  resident graph, compiled plans, and tiled replicas stay hot on one
  shard. When the placed shard is saturated (``spill_threshold``
  requests in flight), the request spills to the least-loaded UP shard
  — latency beats affinity once a shard is at capacity.
* **Health** is typed (:class:`~repro.cluster.health.ShardState`): a
  background monitor pings each shard; transport failures during a
  request mark the shard DOWN immediately. ``drain()`` removes a shard
  from routing without declaring it dead.
* **Failover** redrives in-flight rollouts of a dead shard onto a
  survivor. A rollout is a pure read, so redriving is safe; frames the
  consumer already received are *skipped* from the replayed stream
  (bitwise-identical by the engine conformance contract), so the
  client sees one uninterrupted, exactly-once trajectory. Accounting
  is asserted: every accepted submission resolves exactly once
  (:meth:`cluster_stats`). Typed server-side rejections (``QueueFull``,
  ``DeadlineExpired``, unknown assets, ...) are **not** failover events
  — the shard answered; the answer was no.
* **Capabilities** are negotiated as the intersection of the backends'
  (:meth:`~repro.runtime.api.EngineCapabilities.intersection`): the
  cluster only claims what every shard it may route to can serve.
* **Stats** merge: :meth:`stats` is the
  :class:`~repro.serve.metrics.ServeStats` view of the shards' merged
  metrics registries (:meth:`metrics_registry` — the one shard
  fan-out); :meth:`stats_markdown` renders it plus the per-shard
  routing/health table.
* **Observability**: every routing decision and every per-shard stream
  attempt records a span (components ``router``; names ``route`` /
  ``attempt``) in the cluster's trace ring under the request's
  ``trace_id``, so :meth:`get_trace` — which fans the query out to the
  shards — reconstructs the whole story: client network span, router
  decisions (spills and redrives included), and the serving shard's
  admission/queue/tile/execute/serialize spans, all correlated by the
  one trace id minted at the front door. Health transitions, spills,
  and redrives land in :class:`~repro.obs.registry.MetricsRegistry`
  counters (``repro_cluster_*``) and a structured
  :class:`~repro.obs.events.EventLog` (:meth:`events`);
  :meth:`metrics_registry` merges each shard's registry with a
  ``shard=<id>`` label stamped on.

Thread safety: fully shareable — routing state is lock-guarded and the
backends are themselves thread-safe engines. Determinism: routing
never changes computed bits (conformance-suite-asserted); it only
changes where they are computed.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.ensemble.api import EnsembleFuture
from repro.gnn.architecture import MeshGNN
from repro.gnn.config import GNNConfig
from repro.graph.distributed import LocalGraph
from repro.obs.events import Event, EventLog
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, TraceBuffer, wall_from_perf
from repro.perf.report import markdown_table
from repro.runtime.api import (
    CapabilityError,
    Engine,
    EngineCapabilities,
    NoShardAvailable,
    RolloutFuture,
    RolloutRequest,
    ShardError,
    StepFrame,
    TrainFuture,
    TrainRequest,
)
from repro.cluster.health import HealthMonitor, ShardState
from repro.cluster.placement import HashRing, placement_key
from repro.serve.transport import RemoteServeError, TransportError


class _Shard:
    """One backend engine plus its routing state (internally locked).

    ``on_transition(shard_id, new_state)`` — when provided — is invoked
    on every health-state change, strictly *outside* the shard lock so
    an observer may take its own locks (the cluster's counter/event
    bookkeeping does) without ordering hazards.
    """

    def __init__(self, shard_id: str, engine: Engine, on_transition=None):
        self.shard_id = shard_id
        self.engine = engine
        self._lock = threading.Lock()
        self._state = ShardState.UP
        self._consecutive_failures = 0
        self._on_transition = on_transition
        self.in_flight = 0
        self.routed = 0
        self.spilled = 0
        self.redriven = 0
        self.completed = 0
        self.failed = 0

    # -- state machine (HealthMonitor protocol) ------------------------------

    @property
    def state(self) -> ShardState:
        with self._lock:
            return self._state

    def probe(self) -> None:
        """Liveness probe (delegates to the backend; raises when dead)."""
        ping = getattr(self.engine, "ping", None)
        if ping is not None:
            ping()
        else:
            self.engine.capabilities()

    def _notify(self, state: ShardState) -> None:
        # caller must NOT hold the lock
        if self._on_transition is not None:
            self._on_transition(self.shard_id, state)

    def note_probe_ok(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            changed = self._state is ShardState.DOWN
            if changed:
                self._state = ShardState.UP
        if changed:
            self._notify(ShardState.UP)

    def note_probe_failed(self, threshold: int) -> None:
        with self._lock:
            self._consecutive_failures += 1
            changed = (
                self._state is ShardState.UP
                and self._consecutive_failures >= threshold
            )
            if changed:
                self._state = ShardState.DOWN
        if changed:
            self._notify(ShardState.DOWN)

    def mark_down(self) -> None:
        """Demand-driven: a live request saw the shard die."""
        with self._lock:
            changed = self._state is ShardState.UP
            if changed:
                self._state = ShardState.DOWN
        if changed:
            self._notify(ShardState.DOWN)

    def set_state(self, state: ShardState) -> None:
        with self._lock:
            changed = self._state is not state
            self._state = state
            self._consecutive_failures = 0
        if changed:
            self._notify(state)

    # -- load accounting -----------------------------------------------------

    def begin(self, spilled: bool, redriven: bool) -> None:
        with self._lock:
            self.in_flight += 1
            self.routed += 1
            if spilled:
                self.spilled += 1
            if redriven:
                self.redriven += 1

    def end(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def submit(self, request, spilled: bool, redriven: bool = False,
               failover: bool = False):
        """Account the shard busy and hand ``request`` to its engine.

        A rejected submission is unwound before re-raising — the future
        is never returned, so nothing enters the accepted/resolved
        ledger — and counted against the shard, unless it is a dead
        transport the caller will ``failover`` from (that is the
        shard's health, not the request's outcome).
        """
        self.begin(spilled=spilled, redriven=redriven)
        try:
            return self.engine.submit(request)
        except BaseException as exc:
            self.end()
            if not (failover and isinstance(exc, TransportError)):
                self.note_failed()
            raise

    def note_completed(self) -> None:
        with self._lock:
            self.completed += 1

    def note_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def status(self) -> "ShardStatus":
        with self._lock:
            return ShardStatus(
                shard_id=self.shard_id,
                state=self._state.value,
                in_flight=self.in_flight,
                routed=self.routed,
                spilled=self.spilled,
                redriven=self.redriven,
                completed=self.completed,
                failed=self.failed,
            )


@dataclass(frozen=True)
class ShardStatus:
    """Routing/health snapshot of one shard (plain data, shareable).

    ``routed`` counts submissions placed here (including spills and
    redrives *onto* this shard); ``spilled`` the subset diverted here
    from a saturated primary; ``redriven`` the subset salvaged from a
    failed shard; ``completed``/``failed`` terminal outcomes of
    rollouts that finished here.
    """

    shard_id: str
    state: str
    in_flight: int
    routed: int
    spilled: int
    redriven: int
    completed: int
    failed: int


@dataclass(frozen=True)
class ClusterStats:
    """Cluster-wide routing ledger + per-shard status (snapshot).

    The exactly-once invariant reads directly off the ledger: once the
    cluster is quiescent, ``accepted == completed + failed`` — every
    accepted submission resolved exactly once, redrives included
    (a redrive moves a submission, it never forks it).
    """

    shards: tuple
    accepted: int
    completed: int
    failed: int
    redrives: int
    spills: int

    def markdown(self) -> str:
        """Per-shard routing/health table (markdown)."""
        rows = [
            [s.shard_id, s.state, s.in_flight, s.routed, s.spilled,
             s.redriven, s.completed, s.failed]
            for s in self.shards
        ]
        rows.append([
            "(cluster)",
            f"accepted={self.accepted}",
            "",
            f"{self.accepted}",
            f"{self.spills}",
            f"{self.redrives}",
            f"{self.completed}",
            f"{self.failed}",
        ])
        return markdown_table(
            ["shard", "state", "in flight", "routed", "spilled",
             "redriven", "completed", "failed"],
            rows,
        )


def _abandon_cleanup(cluster: "ClusterEngine", cell: dict) -> None:
    """``weakref.finalize`` hook: settle the books of a future that was
    garbage-collected without ever being consumed.

    A submitted future holds shard ``in_flight`` (that IS pending load)
    and one accepted-ledger slot; a consumer that drops the future
    without calling ``result()``/``frames()`` would otherwise leak both
    — saturating spill routing and breaking the exactly-once invariant
    at quiescence. The cell is disarmed on every consumed path, so this
    only fires for true abandonment (counted as failed: the work's
    outcome was thrown away).
    """
    if cell["armed"]:
        cell["armed"] = False
        cell["shard"].end()
        cell["shard"].note_failed()
        if cell["ledger"]:
            cluster._note_resolved(completed=False)


class _Routed:
    """The books every routed future keeps, written once.

    A submitted future holds its shards' ``in_flight`` and — for the
    kinds in the exactly-once ledger — one accepted slot. ``_accept``
    opens those books and arms the abandonment cells; ``_disarm`` hands
    them to the consuming code path; ``_settle`` closes them with the
    terminal outcome, exactly once. Mixed into each kind's public
    future type; the kinds keep their own routing behaviour.
    """

    def _accept(self, cluster: "ClusterEngine", shards, ledger: bool = True):
        self._cluster = cluster
        self._ledger = ledger
        self._terminal = False
        # abandonment safety net: a future dropped without ever being
        # consumed must still release its shards and settle the ledger
        self._cells = [
            {"shard": shard, "armed": True, "ledger": ledger and i == 0}
            for i, shard in enumerate(shards)
        ]
        for cell in self._cells:
            weakref.finalize(self, _abandon_cleanup, cluster, cell)
        if ledger:
            cluster._note_accepted()

    def _disarm(self) -> list:
        """The consumer took over: the abandonment hook stands down.
        Returns the shards whose ``in_flight`` the caller now owns."""
        owned = [cell["shard"] for cell in self._cells if cell["armed"]]
        for cell in self._cells:
            cell["armed"] = False
        return owned

    def _settle(self, shards, completed: bool) -> None:
        """Terminal outcome onto ``shards`` and into the ledger."""
        # exactly-once accounting: a future must resolve exactly once
        if self._terminal:
            raise AssertionError(
                f"request {self.request.request_id} resolved twice "
                f"(exactly-once accounting violated)"
            )
        self._terminal = True
        for shard in shards:
            if completed:
                shard.note_completed()
            else:
                shard.note_failed()
        if self._ledger:
            self._cluster._note_resolved(completed)


class _ClusterTrainFuture(_Routed, TrainFuture):
    """A routed training job: the shard stays accounted busy until the
    job resolves, and its outcome lands in the shard's ledger.

    No failover — a redriven optimizer run is not idempotent — so this
    is a thin accounting wrapper over the backend's future. Train jobs
    live outside the rollout exactly-once ledger, but abandonment still
    releases the shard.
    """

    def __init__(self, cluster: "ClusterEngine", shard: _Shard,
                 inner: TrainFuture):
        super().__init__(inner.request)
        self._inner = inner
        self._accept(cluster, [shard], ledger=False)

    def result(self, timeout: float | None = None):
        try:
            outcome = self._inner.result(timeout=timeout)
        except (TimeoutError, _FuturesTimeout):
            raise  # still running; the shard stays busy
        except BaseException:
            self._resolve(completed=False)
            raise
        self._resolve(completed=True)
        return outcome

    def _resolve(self, completed: bool) -> None:
        shards = self._disarm()  # empty once resolved (or abandoned)
        if shards:
            shards[0].end()
            self._settle(shards, completed)

    @property
    def done(self) -> bool:
        return self._inner.done


class _ClusterRolloutFuture(_Routed, RolloutFuture):
    """A routed rollout with transparent redrive-on-shard-death.

    Submission is eager (placement + write happen in ``__init__``), so
    routing errors surface at the call site. The frame stream wraps the
    backend future's; when the connection to the serving shard breaks,
    the request is redriven on the next preferred UP shard and the
    frames already delivered are skipped from the replay — rollouts are
    deterministic, so the skipped prefix is bitwise-identical to what
    the consumer already holds. Single-consumer, like every future.
    """

    def __init__(self, cluster: "ClusterEngine", request: RolloutRequest):
        super().__init__(request)
        self._cluster = cluster
        self._excluded: list = []
        self._attempts: list = []
        self._shard: _Shard | None = None
        self._inner: RolloutFuture | None = None
        self._redriving = False
        self._submit_attempt()
        self._accept(cluster, [self._shard])

    def _submit_attempt(self) -> None:
        """Route and submit once; on a dead shard, exclude it and retry."""
        while True:
            started = time.perf_counter()
            shard, spilled = self._cluster._route(
                self.request.model,
                self.request.graph,
                exclude=self._excluded,
                attempts=self._attempts,
            )
            try:
                self._inner = shard.submit(
                    self.request, spilled, redriven=self._redriving,
                    failover=True,
                )
            except TransportError as exc:
                self._note_shard_failure(shard, exc)
                self._span("route", started, "failed", shard, spilled=spilled,
                           error=str(exc))
                continue
            self._span("route", started, "ok", shard, spilled=spilled)
            self._shard = shard
            return

    def _span(
        self, name: str, started: float, status: str, shard: _Shard, **attrs
    ) -> None:
        """Record one router-side span (``route`` decision / stream
        ``attempt``) under the request's trace id."""
        trace = self._cluster.trace
        if not trace.enabled:
            return
        trace.record_span(
            self.request.trace_id,
            name,
            "router",
            wall_from_perf(started),
            time.perf_counter() - started,
            status=status,
            shard=shard.shard_id,
            redriven=self._redriving,
            **attrs,
        )

    def _note_shard_failure(self, shard: _Shard, exc: TransportError) -> None:
        self._attempts.append((shard.shard_id, str(exc)))
        self._excluded.append(shard.shard_id)
        shard.mark_down()

    def _frames(self, timeout: float | None) -> Iterator[StepFrame]:
        # from here the generator's exception/finally paths own the
        # shard and ledger accounting
        self._disarm()
        yielded = 0
        while True:
            shard, inner = self._shard, self._inner
            attempt_started = time.perf_counter()
            try:
                try:
                    skip = yielded
                    for frame in inner.frames(timeout=timeout):
                        if skip:
                            skip -= 1  # redrive replay: already delivered
                            continue
                        self._collected.append(frame.state)
                        yield StepFrame(yielded, frame.state)
                        yielded += 1
                    self.metrics = inner.metrics
                    self._span("attempt", attempt_started, "ok", shard,
                               frames=yielded)
                    self._settle([shard], completed=True)
                    return
                except TransportError as exc:
                    self._span("attempt", attempt_started, "failed", shard,
                               frames=yielded, error=str(exc))
                    if isinstance(exc, RemoteServeError):
                        # the shard is reachable and *reported* an
                        # internal failure: not a failover event
                        self._settle([shard], completed=False)
                        raise
                    self._note_shard_failure(shard, exc)
                    self._redriving = True
                    self._cluster._note_redrive()
                    try:
                        self._submit_attempt()
                    except BaseException:
                        # no survivor took the redrive (or the survivor
                        # rejected it): the accepted submission resolves
                        # here, exactly once, as failed
                        self._settle([], completed=False)
                        raise
                    continue
                except BaseException as exc:
                    # typed server rejection or consumer abandonment:
                    # the shard is healthy, the request is over
                    self._span("attempt", attempt_started, "failed", shard,
                               frames=yielded, error=repr(exc))
                    self._settle([shard], completed=False)
                    raise
            finally:
                shard.end()

    @property
    def done(self) -> bool:
        return self._terminal


class _ClusterEnsembleFuture(_Routed, EnsembleFuture):
    """A fanned-out ensemble: member chunks on shards, reduced at the router.

    Submission splits the M members into contiguous chunks — one per UP
    shard (never more chunks than members) — and places each chunk by
    the salted ring key, so an ensemble's chunks spread instead of
    piling on the asset's primary. Each shard streams its chunk's raw
    member states; the router walks the chunk streams in lockstep
    through the shared :class:`~repro.ensemble.driver.SummaryStream`,
    so reduction, blow-up detection, and early-stop all happen exactly
    once, over the whole ensemble, with the same bits every other
    engine produces. Early-stop aborts the chunk streams (their
    connections are discarded, not replayed).

    No mid-stream redrive in v1: a shard dying mid-ensemble fails the
    whole request (unlike single rollouts, a chunk replay would have to
    re-synchronize M/n_shards member streams at the failed step; the
    deterministic perturbation makes resubmission by the caller cheap
    and exact). The accepted submission still resolves exactly once.
    """

    def __init__(self, cluster: "ClusterEngine", request):
        super().__init__(request)
        #: (shard, inner future, absolute member indices) per chunk
        self._chunks: list = []
        members = list(request.members)
        up = sum(
            1 for s in cluster._shards.values() if s.state is ShardState.UP
        )
        n_chunks = max(1, min(up, len(members)))
        per = -(-len(members) // n_chunks)
        bounds = [
            (members[lo], members[min(lo + per, len(members)) - 1] + 1)
            for lo in range(0, len(members), per)
        ]
        try:
            for ci, (start, stop) in enumerate(bounds):
                started = time.perf_counter()
                shard, spilled = cluster._route(
                    request.model, request.graph,
                    salt=ci if len(bounds) > 1 else None,
                )
                inner = shard.submit(request.chunk(start, stop), spilled)
                if cluster.trace.enabled:
                    cluster.trace.record_span(
                        request.trace_id, "route", "router",
                        wall_from_perf(started),
                        time.perf_counter() - started,
                        status="ok", shard=shard.shard_id,
                        spilled=spilled, chunk=ci, members=stop - start,
                    )
                self._chunks.append((shard, inner, tuple(range(start, stop))))
        except BaseException:
            # unwind chunks already placed; nothing entered the ledger
            for shard, _, _ in self._chunks:
                shard.end()
                shard.note_failed()
            raise
        self._accept(cluster, [shard for shard, _, _ in self._chunks])

    def _frames(self, timeout: float | None):
        from repro.ensemble.driver import MemberStream, SummaryStream

        shards = self._disarm()
        streams = []
        for _, inner, indices in self._chunks:
            gen = inner.frames(timeout=timeout)
            streams.append(
                MemberStream(
                    indices,
                    (list(f.members) for f in gen),
                    abort=gen.close,
                )
            )
        stream = SummaryStream(
            self.request, streams,
            trace=self._cluster.trace if self._cluster.trace.enabled else None,
            component="router",
        )
        try:
            try:
                for frame in stream.frames():
                    self._collected.append(frame)
                    yield frame
            except BaseException:
                # which chunk stream failed is not attributable here;
                # shard death is the health monitor's job — this path
                # only settles the books (no mid-stream redrive, v1)
                self._settle(shards, completed=False)
                raise
        finally:
            for shard in shards:
                shard.end()
        self.stability = stream.report
        self.metrics = {
            "members": len(list(self.request.members)),
            "chunks": len(self._chunks),
            "shards": [s.shard_id for s in shards],
        }
        self._settle(shards, completed=True)

    @property
    def done(self) -> bool:
        return self._terminal


class ClusterEngine(Engine):
    """Shard-routed engine over N backends (see module docstring).

    Construct through :func:`repro.runtime.connect` with a
    ``cluster://host1:p1,host2:p2`` URL (networked shards), or directly
    from any mapping of shard id to engine — the routing layer only
    relies on the :class:`~repro.runtime.api.Engine` protocol, which is
    what the unit tests exploit with scripted in-process backends.
    """

    def __init__(
        self,
        backends: "Mapping[str, Engine] | Sequence[tuple[str, Engine]]",
        spill_threshold: int = 8,
        health_interval_s: float | None = 2.0,
        failure_threshold: int = 2,
        ring_replicas: int = 64,
        trace_capacity: int = 2048,
        event_capacity: int = 1024,
    ):
        items = (
            list(backends.items())
            if isinstance(backends, Mapping)
            else list(backends)
        )
        if not items:
            raise ValueError("a cluster needs at least one backend")
        if spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        #: router-side span ring (``route``/``attempt`` spans); shard
        #: spans are fetched on demand by :meth:`get_trace`
        self.trace = TraceBuffer(trace_capacity)
        #: structured operational record: health transitions, spills,
        #: redrives — queryable via :meth:`events`
        self.event_log = EventLog(event_capacity)
        self._metrics = MetricsRegistry()
        self._health_transitions = self._metrics.counter(
            "repro_cluster_health_transitions_total",
            "shard health-state transitions, labeled shard and new state",
        )
        self._redrive_counter = self._metrics.counter(
            "repro_cluster_redrives_total",
            "in-flight rollouts salvaged off a dead shard",
        )
        self._spill_counter = self._metrics.counter(
            "repro_cluster_spills_total",
            "requests diverted off a saturated primary shard",
        )
        self._resolved_counter = self._metrics.counter(
            "repro_cluster_requests_resolved_total",
            "accepted submissions by terminal outcome",
        )
        self._shards: dict[str, _Shard] = {
            sid: _Shard(sid, engine, on_transition=self._on_shard_transition)
            for sid, engine in items
        }
        self._ring = HashRing(
            [sid for sid, _ in items], replicas=ring_replicas
        )
        self._spill_threshold = spill_threshold
        self._member_caps = {
            sid: shard.engine.capabilities()
            for sid, shard in self._shards.items()
        }
        self._caps = EngineCapabilities.intersection(
            "cluster", list(self._member_caps.values())
        )
        self._lock = threading.Lock()
        self._accepted = 0
        self._completed = 0
        self._failed = 0
        self._redrives = 0
        self._spills = 0
        self._closed = False
        self._monitor: HealthMonitor | None = None
        if health_interval_s is not None:
            self._monitor = HealthMonitor(
                list(self._shards.values()),
                interval_s=health_interval_s,
                failure_threshold=failure_threshold,
            ).start()

    @classmethod
    def connect(
        cls,
        endpoints: str | Sequence[str],
        pool_size: int = 4,
        request_timeout_s: float = 120.0,
        **cluster_options,
    ) -> "ClusterEngine":
        """Dial every ``HOST:PORT`` endpoint and build the cluster.

        ``endpoints`` is a comma-separated string (the ``cluster://``
        URL body) or a sequence. Construction verifies liveness of
        every shard (a cluster that starts degraded is a deployment
        error, not a runtime condition); engines already dialed are
        closed again if a later endpoint fails.
        """
        from repro.runtime.remote import RemoteEngine

        if isinstance(endpoints, str):
            endpoints = [e.strip() for e in endpoints.split(",") if e.strip()]
        endpoints = list(endpoints)
        if len(set(endpoints)) != len(endpoints):
            raise ValueError(f"duplicate cluster endpoints: {endpoints}")
        backends: list = []
        try:
            for endpoint in endpoints:
                backends.append(
                    (
                        endpoint,
                        RemoteEngine.connect(
                            endpoint,
                            pool_size=pool_size,
                            request_timeout_s=request_timeout_s,
                        ),
                    )
                )
        except BaseException:
            for _, engine in backends:
                engine.close()
            raise
        return cls(backends, **cluster_options)

    # -- lifecycle -----------------------------------------------------------

    def capabilities(self) -> EngineCapabilities:
        """The negotiated intersection of every shard's capabilities."""
        return self._caps

    def close(self) -> None:
        """Stop the health monitor and close every backend (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._monitor is not None:
            self._monitor.stop()
        for shard in self._shards.values():
            shard.engine.close()

    # -- placement / health admin --------------------------------------------

    @property
    def shard_ids(self) -> list:
        """Shard ids in construction order."""
        return list(self._ring.shard_ids)

    def place(self, model: str, graph: str) -> str:
        """The primary (cache-affinity) shard of an asset pair.

        Static placement only — live routing may divert to a survivor
        (primary DOWN) or to the least-loaded shard (primary
        saturated).
        """
        return self._ring.place(placement_key(model, graph))

    def drain(self, shard_id: str) -> None:
        """Remove a shard from routing; in-flight work completes."""
        self._shard(shard_id).set_state(ShardState.DRAINING)

    def undrain(self, shard_id: str) -> None:
        """Return a drained shard to service."""
        self._shard(shard_id).set_state(ShardState.UP)

    def shard_states(self) -> dict:
        """``{shard_id: ShardState}`` snapshot."""
        return {sid: s.state for sid, s in self._shards.items()}

    def probe_now(self) -> None:
        """Run one synchronous health pass (recovers reachable shards)."""
        if self._monitor is not None:
            self._monitor.probe_now()

    def _shard(self, shard_id: str) -> _Shard:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ShardError(
                f"unknown shard {shard_id!r}; known: {self.shard_ids}",
                shard_id=shard_id,
            ) from None

    # -- routing -------------------------------------------------------------

    def _route(
        self,
        model: str,
        graph: str,
        exclude: Sequence[str] = (),
        attempts: Sequence = (),
        salt: int | None = None,
    ) -> tuple[_Shard, bool]:
        """Pick the serving shard for an asset pair.

        Preference order comes from the ring; DOWN/DRAINING/excluded
        shards are skipped; a saturated preferred candidate spills to
        the least-loaded UP candidate (ties keep ring order) — the
        returned flag says whether that diversion happened. Raises
        :class:`~repro.runtime.api.NoShardAvailable` when no candidate
        remains. ``salt`` perturbs the ring key deterministically —
        ensemble chunks use their chunk index so one ensemble's chunks
        spread over the ring instead of piling on the asset's primary.
        """
        key = placement_key(model, graph)
        if salt is not None:
            key = f"{key}\x00chunk{salt}"
        order = self._ring.preference(key)
        candidates = [
            self._shards[sid]
            for sid in order
            if sid not in exclude
            and self._shards[sid].state is ShardState.UP
        ]
        if not candidates:
            states = {sid: s.state.value for sid, s in self._shards.items()}
            raise NoShardAvailable(
                f"no shard available for ({model!r}, {graph!r}): "
                f"states={states}, excluded={list(exclude)}, "
                f"attempts={list(attempts)}",
                attempts=attempts,
            )
        chosen = candidates[0]
        if chosen.in_flight >= self._spill_threshold:
            least = min(candidates, key=lambda s: s.in_flight)
            if least.in_flight < chosen.in_flight:
                with self._lock:
                    self._spills += 1
                self._spill_counter.inc(
                    source=chosen.shard_id, target=least.shard_id
                )
                self.event_log.emit(
                    "spill",
                    source=chosen.shard_id,
                    target=least.shard_id,
                    in_flight=chosen.in_flight,
                )
                return least, True
        return chosen, False

    # -- ledger --------------------------------------------------------------

    def _note_accepted(self) -> None:
        with self._lock:
            self._accepted += 1

    def _note_resolved(self, completed: bool) -> None:
        with self._lock:
            if completed:
                self._completed += 1
            else:
                self._failed += 1
        self._resolved_counter.inc(
            outcome="completed" if completed else "failed"
        )

    def _note_redrive(self) -> None:
        with self._lock:
            self._redrives += 1
        self._redrive_counter.inc()
        self.event_log.emit("redrive")

    def _on_shard_transition(self, shard_id: str, state: ShardState) -> None:
        """Shard health observer (runs outside the shard lock)."""
        self._health_transitions.inc(shard=shard_id, to=state.value)
        self.event_log.emit("health_transition", shard=shard_id,
                            to=state.value)

    # -- assets (broadcast) --------------------------------------------------

    def _broadcast(self, op_name: str, call) -> None:
        """Apply a registration to every shard; shard-aware on failure.

        Typed service errors (duplicate names, bad paths, capability
        rejections) propagate as themselves; transport failures are
        wrapped in :class:`~repro.runtime.api.ShardError` naming the
        shard, because a half-applied broadcast is an operational
        problem on a *specific* host.
        """
        for sid, shard in self._shards.items():
            try:
                call(shard.engine)
            except TransportError as exc:
                raise ShardError(
                    f"{op_name} failed on shard {sid!r}: {exc}", shard_id=sid
                ) from exc

    def register_model(self, name: str, model: MeshGNN) -> None:
        """Broadcast an in-memory model (needs every shard in-process)."""
        if not self._caps.in_memory_assets:
            raise CapabilityError(
                "in-memory models cannot cross to the cluster's remote "
                "shards; save a checkpoint and use "
                "register_checkpoint(name, path)"
            )
        self._broadcast(
            "register_model", lambda e: e.register_model(name, model)
        )

    def register_checkpoint(
        self,
        name: str,
        path: str | Path,
        expect_config: GNNConfig | None = None,
        eager: bool = False,
    ) -> None:
        """Broadcast a checkpoint registration (shard-visible path)."""
        self._broadcast(
            "register_checkpoint",
            lambda e: e.register_checkpoint(name, path, expect_config, eager),
        )

    def register_graph(self, key: str, graphs: Sequence[LocalGraph]) -> None:
        """Broadcast an in-memory partitioned graph to every shard.

        Remote shards receive it over the wire as ``.npy`` frames (the
        ``graph_upload`` capability) — this is how assets reach shards
        with disjoint filesystems. Rejected up front when some shard
        supports neither in-memory registration nor upload — judged
        per shard, so a heterogeneous cluster where every member has
        *one* of the two paths still registers.
        """
        unable = [
            sid for sid, caps in self._member_caps.items()
            if not (caps.in_memory_assets or caps.graph_upload)
        ]
        if unable:
            raise CapabilityError(
                f"shard(s) {unable} support neither in-memory graphs nor "
                f"graph upload; use register_graph_dir(key, path) with a "
                f"path every shard can see"
            )
        self._broadcast(
            "register_graph", lambda e: e.register_graph(key, graphs)
        )

    def register_graph_dir(self, key: str, directory: str | Path) -> None:
        """Broadcast a graph-directory registration (shard-visible path)."""
        self._broadcast(
            "register_graph_dir",
            lambda e: e.register_graph_dir(key, directory),
        )

    def _intersection_query(self, getter) -> list:
        """Sorted intersection of a names query across UP shards."""
        result: set | None = None
        reachable = 0
        for shard in self._shards.values():
            if shard.state is not ShardState.UP:
                continue
            try:
                names = set(getter(shard.engine))
            except TransportError:
                shard.mark_down()
                continue
            reachable += 1
            result = names if result is None else (result & names)
        if result is None:
            states = {sid: s.state.value for sid, s in self._shards.items()}
            raise NoShardAvailable(
                f"no UP shard answered the asset query: states={states}"
            )
        return sorted(result)

    def model_names(self) -> list:
        """Models registered on *every* UP shard (cluster-servable)."""
        return self._intersection_query(lambda e: e.model_names())

    def graph_keys(self) -> list:
        """Graphs registered on *every* UP shard (cluster-servable)."""
        return self._intersection_query(lambda e: e.graph_keys())

    # -- submission ----------------------------------------------------------

    def _submit_rollout(self, request: RolloutRequest) -> RolloutFuture:
        return _ClusterRolloutFuture(self, request)

    def _submit_ensemble(self, request) -> EnsembleFuture:
        return _ClusterEnsembleFuture(self, request)

    def _submit_train(self, request: TrainRequest) -> TrainFuture:
        """Route a training job to its placed shard (no failover:
        training mutates the job's model copy — redriving could run
        the optimizer twice; let the caller decide). The shard counts
        as busy — visible to spill routing — until the job resolves.
        """
        shard, spilled = self._route(request.model, request.graph)
        return _ClusterTrainFuture(
            self, shard, shard.submit(request, spilled)
        )

    # -- stats ---------------------------------------------------------------

    def cluster_stats(self) -> ClusterStats:
        """The routing ledger + per-shard status table."""
        with self._lock:
            accepted = self._accepted
            completed = self._completed
            failed = self._failed
            redrives = self._redrives
            spills = self._spills
        return ClusterStats(
            shards=tuple(
                self._shards[sid].status() for sid in self._ring.shard_ids
            ),
            accepted=accepted,
            completed=completed,
            failed=failed,
            redrives=redrives,
            spills=spills,
        )

    def stats_markdown(self) -> str:
        """The merged serve-stats table plus the per-shard table."""
        return (
            super().stats_markdown() + "\n\n" + self.cluster_stats().markdown()
        )

    # -- observability -------------------------------------------------------

    def get_trace(self, trace_id: str) -> list[Span]:
        """One request's full story: router spans + every shard's spans.

        Fans the query out to each non-DOWN shard (a shard that dies
        mid-query is marked DOWN and skipped), merges with the
        cluster's own ``route``/``attempt`` spans, and returns the lot
        sorted by start time — failover traces show the failed attempt
        on the dead shard *and* the completed one on the survivor,
        correlated by the one trace id.
        """
        spans = list(self.trace.trace(trace_id))
        for shard in self._shards.values():
            if shard.state is ShardState.DOWN:
                continue
            try:
                spans.extend(shard.engine.get_trace(trace_id))
            except TransportError:
                shard.mark_down()
        return sorted(spans, key=lambda s: (s.start_s, s.name))

    def events(self, kind: str | None = None) -> list[Event]:
        """Structured cluster events (health transitions, spills,
        redrives), oldest first, optionally filtered by kind."""
        return self.event_log.events(kind)

    def metrics_registry(self) -> MetricsRegistry:
        """Cluster counters merged with every shard's registry.

        Each reachable shard's registry is relabeled ``shard=<id>``
        before merging, so per-shard series stay distinguishable in the
        combined Prometheus export; the cluster's own
        ``repro_cluster_*`` counters carry no shard label (they are
        router-side). DOWN shards are skipped (they cannot answer); a
        shard that dies during the query is marked DOWN and skipped
        likewise, so the merge always reflects the reachable cluster —
        and so does :meth:`stats`, the label-blind view of it.
        """
        merged = MetricsRegistry.from_snapshot(self._metrics.snapshot())
        for sid, shard in self._shards.items():
            if shard.state is ShardState.DOWN:
                continue
            try:
                merged.merge(shard.engine.metrics_registry().relabel(shard=sid))
            except TransportError:
                shard.mark_down()
        return merged
