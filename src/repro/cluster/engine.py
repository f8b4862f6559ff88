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
* **Failover** is written once, for every streamed request kind: a
  rollout is one :class:`_RoutedStream`, an ensemble one per member
  chunk, and a routed stream whose shard dies — refusing the
  submission or mid-flight — is placed again on the next preferred UP
  shard. Rollouts and (deterministic) ensemble members are pure reads,
  so redriving is safe; frames the consumer already received are
  *skipped* from the replayed stream (bitwise-identical by the engine
  conformance contract), so the client sees one uninterrupted,
  exactly-once stream. Typed server-side rejections (``QueueFull``,
  ``DeadlineExpired``, unknown assets, ...) are **not** failover events
  — the shard answered; the answer was no. Train jobs never fail over
  (an optimizer run is not idempotent).
* **The ledger** is stored once: every routing count is a
  ``repro_cluster_*`` counter in the cluster's
  :class:`~repro.obs.registry.MetricsRegistry` (named in
  :data:`_SERIES`, incremented where the thing happens), and
  :meth:`cluster_stats` is a read-only view of them. Accounting is
  asserted: every accepted submission resolves exactly once.
* **Capabilities** are the intersection of the backends' declared
  records (:meth:`~repro.runtime.api.EngineCapabilities.intersection`):
  the cluster only claims what every shard it may route to can serve.
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
  and redrives also land in a structured
  :class:`~repro.obs.events.EventLog` (:meth:`events`; a ``redrive``
  names its ``trace_id``, ``source``, ``target`` and delivered
  ``frames``); :meth:`metrics_registry` merges each shard's registry
  with a ``shard=<id>`` label stamped on.

Tuning that no caller ever varied is a module constant
(:data:`RING_REPLICAS`, :data:`~repro.cluster.health.FAILURE_THRESHOLD`,
and the ring sizes :data:`~repro.obs.trace.TRACE_CAPACITY` and
:data:`~repro.obs.events.EVENT_CAPACITY`); the constructor keeps
``spill_threshold`` and ``health_interval_s``.

Thread safety: fully shareable — live routing state is lock-guarded,
counts live in the (locked) registry, and the
backends are themselves thread-safe engines. Determinism: routing
never changes computed bits (conformance-suite-asserted); it only
changes where they are computed.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import TimeoutError as _FuturesTimeout
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
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
from repro.cluster.health import FAILURE_THRESHOLD, HealthMonitor, ShardState
from repro.cluster.placement import HashRing, placement_key
from repro.serve.transport import RemoteServeError, TransportError


#: virtual points per shard on the placement ring
RING_REPLICAS = 64

#: Every router-side series — the one place they are named. The routing
#: ledger lives in these counters and nowhere else; :class:`ClusterStats`
#: and :class:`ShardStatus` are views of them (``field: (name, help)``).
_SERIES = {
    "transitions": ("repro_cluster_health_transitions_total",
                    "shard health-state transitions, labeled shard and new state"),
    "spills": ("repro_cluster_spills_total",
               "requests diverted off a saturated primary shard"),
    "redrives": ("repro_cluster_redrives_total",
                 "in-flight rollouts salvaged off a dead shard"),
    "accepted": ("repro_cluster_requests_accepted_total",
                 "submissions accepted into the exactly-once ledger"),
    "resolved": ("repro_cluster_requests_resolved_total",
                 "accepted submissions by terminal outcome"),
    "routed": ("repro_cluster_shard_routed_total",
               "submissions placed on a shard (spills and redrives onto it included)"),
    "redriven": ("repro_cluster_shard_redriven_total",
                 "submissions placed on a shard after the shard serving them died"),
    "outcomes": ("repro_cluster_shard_outcomes_total",
                 "terminal outcomes of submissions on the shard they ended on"),
}


def _outcome(completed: bool) -> str:
    return "completed" if completed else "failed"


class _Shard:
    """One backend engine plus its *live* routing state (internally locked).

    Live means what routing reads on every decision: the health state
    and ``in_flight``. Everything counted — placements, redrives onto
    this shard, terminal outcomes — goes straight into ``ledger`` (the
    cluster's :data:`_SERIES` handles) under ``shard=<id>``.

    ``on_transition(shard_id, new_state)`` is invoked on every
    health-state change, strictly *outside* the shard lock so the
    observer may take its own locks without ordering hazards.
    """

    def __init__(self, shard_id: str, engine: Engine, ledger: dict,
                 on_transition):
        self.shard_id = shard_id
        self.engine = engine
        self._ledger = ledger
        self._lock = threading.Lock()
        self._state = ShardState.UP
        self._consecutive_failures = 0
        self._on_transition = on_transition
        self.in_flight = 0

    # -- state machine (HealthMonitor protocol) ------------------------------

    @property
    def state(self) -> ShardState:
        with self._lock:
            return self._state

    def probe(self) -> None:
        """Liveness probe: the backend's ``ping()`` (raises when dead);
        an in-process backend has no transport to probe."""
        ping = getattr(self.engine, "ping", None)
        if ping is not None:
            ping()

    def note_probe_ok(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            changed = self._state is ShardState.DOWN
            if changed:
                self._state = ShardState.UP
        if changed:
            self._on_transition(self.shard_id, ShardState.UP)

    def note_probe_failed(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            changed = (
                self._state is ShardState.UP
                and self._consecutive_failures >= FAILURE_THRESHOLD
            )
            if changed:
                self._state = ShardState.DOWN
        if changed:
            self._on_transition(self.shard_id, ShardState.DOWN)

    def mark_down(self) -> None:
        """Demand-driven: a live request saw the shard die."""
        with self._lock:
            changed = self._state is ShardState.UP
            if changed:
                self._state = ShardState.DOWN
        if changed:
            self._on_transition(self.shard_id, ShardState.DOWN)

    def set_state(self, state: ShardState) -> None:
        with self._lock:
            changed = self._state is not state
            self._state = state
            self._consecutive_failures = 0
        if changed:
            self._on_transition(self.shard_id, state)

    # -- load accounting -----------------------------------------------------

    def submit(self, request, redriven: bool = False, failover: bool = False):
        """Take an ``in_flight`` slot, count the placement, and hand
        ``request`` to the backend.

        A rejected submission gives the slot straight back before
        re-raising — the future is never returned, so nothing enters
        the accepted/resolved ledger — and counts as a failed outcome
        here, unless it is a dead transport the caller will
        ``failover`` from (that is the shard's health, not the
        request's outcome).
        """
        with self._lock:
            self.in_flight += 1
        self._ledger["routed"].inc(shard=self.shard_id)
        if redriven:
            self._ledger["redriven"].inc(shard=self.shard_id)
        try:
            return self.engine.submit(request)
        except BaseException as exc:
            dead = failover and isinstance(exc, TransportError)
            self.release(None if dead else False)
            raise

    def release(self, completed: bool | None) -> None:
        """Give an ``in_flight`` slot back and record how the work on it
        ended; ``None`` records nothing (the transport died under it)."""
        with self._lock:
            self.in_flight -= 1
        if completed is not None:
            self._ledger["outcomes"].inc(
                shard=self.shard_id, outcome=_outcome(completed)
            )


@dataclass(frozen=True)
class ShardStatus:
    """Routing/health snapshot of one shard (plain data, shareable).

    ``state`` and ``in_flight`` are the live values; the counts are read
    from the cluster's registry. ``routed`` counts submissions placed
    here (including spills and redrives *onto* this shard); ``spilled``
    the subset diverted here from a saturated primary; ``redriven`` the
    subset salvaged from a failed shard; ``completed``/``failed``
    terminal outcomes of work that ended here (a stream its consumer
    closed early — an early-stopped ensemble's chunks included — counts
    failed: the rest of its output was thrown away).
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

    A view of the cluster's ``repro_cluster_*`` series taken at one
    instant. The exactly-once invariant reads directly off it: once the
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


class _Slot:
    """A placed request's claim on one shard's ``in_flight``.

    ``release`` is idempotent, so every way a request can end —
    consumed, failed, closed by its consumer, garbage-collected without
    ever being consumed (a ``weakref.finalize`` on the owner calls it)
    — gives the slot back exactly once; a leaked slot would saturate
    spill routing forever. ``shard`` stays readable after release.
    """

    def __init__(self, shard: _Shard | None = None):
        self.shard = shard
        self._held = shard is not None

    def take(self, shard: _Shard) -> None:
        """Adopt the slot ``shard.submit`` just took."""
        self.shard, self._held = shard, True

    def release(self, completed: bool | None) -> None:
        if self._held:
            self._held = False
            self.shard.release(completed)


class _RoutedStream:
    """One streamed request placed on a shard, outliving that shard.

    The one place that knows who survives a shard's death, for every
    streamed request kind (a rollout is one routed stream, an ensemble
    one per member chunk). Placement is eager — route and write happen
    in ``__init__``, so routing errors surface at the call site — and a
    shard whose transport refuses is marked DOWN, excluded, and the
    next preferred UP shard tried, until one accepts or
    :class:`~repro.runtime.api.NoShardAvailable` carries the attempt
    log. :meth:`frames` hands out the backend future's frames; when the
    transport breaks mid-stream the request is placed again the same
    way and the frames already delivered are *skipped* from the replay
    — the request is a pure read of deterministic arithmetic, so the
    skipped prefix is bitwise what the consumer already holds. Frames
    are opaque here: only their count matters.

    Redrives are bounded without a retry budget: a dead shard joins the
    exclusion list, so each shard is tried at most once per stream and
    a stream is placed at most ``len(shards)`` times.

    ``salt`` perturbs the ring key (see :meth:`ClusterEngine._route`);
    ``span_attrs`` ride on every span the stream records. The stream
    holds its shard's ``in_flight`` slot from placement until it ends,
    whichever way (see :class:`_Slot`); ``inner`` is the backend future
    of the current placement. Single-consumer.
    """

    def __init__(self, cluster: "ClusterEngine", request,
                 salt: int | None = None, **span_attrs):
        self.request = request
        self._cluster = cluster
        self._salt = salt
        self._span_attrs = span_attrs
        self._excluded: list = []
        self._attempts: list = []
        self._redriving = False
        self._delivered = 0
        self._slot = _Slot()
        weakref.finalize(self, self._slot.release, False)
        self._place()

    @property
    def shard_id(self) -> str:
        """The shard serving (or that last served) this stream."""
        return self._slot.shard.shard_id

    def _place(self) -> None:
        """Route and submit; on a dead shard, exclude it and go again."""
        while True:
            started = time.perf_counter()
            shard, spilled = self._cluster._route(
                self.request.model,
                self.request.graph,
                exclude=self._excluded,
                attempts=self._attempts,
                salt=self._salt,
            )
            try:
                self.inner = shard.submit(
                    self.request, redriven=self._redriving, failover=True
                )
            except TransportError as exc:
                self._shard_died(shard, exc)
                self._span("route", started, "failed", shard, spilled=spilled,
                           error=str(exc))
                continue
            self._span("route", started, "ok", shard, spilled=spilled)
            self._slot.take(shard)
            return

    def _shard_died(self, shard: _Shard, exc: TransportError) -> None:
        self._attempts.append((shard.shard_id, str(exc)))
        self._excluded.append(shard.shard_id)
        shard.mark_down()

    def _span(
        self, name: str, started: float, status: str, shard: _Shard, **attrs
    ) -> None:
        """Record one router-side span (``route`` decision / stream
        ``attempt``) under the request's trace id."""
        self._cluster.trace.record_span(
            self.request.trace_id,
            name,
            "router",
            wall_from_perf(started),
            time.perf_counter() - started,
            status=status,
            shard=shard.shard_id,
            redriven=self._redriving,
            **self._span_attrs,
            **attrs,
        )

    def close(self) -> None:
        """Give up a stream that will never be consumed."""
        self._slot.release(False)

    def frames(self, timeout: float | None) -> Iterator:
        """The request's frames, each exactly once, across redrives."""
        while True:
            shard, started = self._slot.shard, time.perf_counter()
            source = self.inner.frames(timeout=timeout)
            outcome, error = False, {}
            try:
                # a redrive replays from frame 0: skip what was delivered
                for frame in islice(source, self._delivered, None):
                    self._delivered += 1
                    yield frame
                outcome = True
                return
            except TransportError as exc:
                error = {"error": str(exc)}
                if isinstance(exc, RemoteServeError):
                    # the shard is reachable and *reported* an internal
                    # failure: an answer, not a failover event
                    raise
                outcome = None  # the shard's health, not the request's
                self._shard_died(shard, exc)
            except BaseException as exc:
                # typed server rejection, or the consumer closed the
                # stream: the shard is healthy, the request is over
                error = {"error": repr(exc)}
                raise
            finally:
                # an abandoned backend stream must not keep its socket
                source.close()
                self._span("attempt", started, "ok" if outcome else "failed",
                           shard, frames=self._delivered, **error)
                self._slot.release(outcome)
            self._redrive(shard)

    def _redrive(self, dead: _Shard) -> None:
        """Place the request again after ``dead``'s transport broke.

        Raises when no survivor takes it (or the survivor rejects it);
        the stream then holds no slot, and its future resolves failed.
        """
        self._redriving = True
        self._cluster._ledger["redrives"].inc()
        target = None
        try:
            self._place()
            target = self.shard_id
        finally:
            self._cluster.event_log.emit(
                "redrive", trace_id=self.request.trace_id,
                source=dead.shard_id, target=target, frames=self._delivered,
            )


class _LedgerEntry:
    """One accepted submission's line in the exactly-once ledger.

    Opened (``accepted``) when a streamed future is constructed and
    closed (``resolved{outcome}``) exactly once, however the future
    ends: consumed to the end, failed, closed by its consumer, or
    garbage-collected (counted failed: the work's outcome was thrown
    away). A second resolution on a consumed path is a bug in the
    router and raises; on the abandonment paths it is expected — a
    future dropped mid-iteration is settled by whichever of its dying
    generator and its finalizer runs first — and ignored.
    """

    def __init__(self, cluster: "ClusterEngine", future):
        self._resolved = cluster._ledger["resolved"]
        self._request_id = future.request.request_id
        self.closed = False
        cluster._ledger["accepted"].inc()
        weakref.finalize(future, self.resolve, False, abandoned=True)

    def resolve(self, completed: bool, abandoned: bool = False) -> None:
        if self.closed:
            if abandoned:
                return
            raise AssertionError(
                f"request {self._request_id} resolved twice "
                f"(exactly-once accounting violated)"
            )
        self.closed = True
        self._resolved.inc(outcome=_outcome(completed))

    @contextmanager
    def settling(self):
        """Resolve with how the enclosed block — the body of a future's
        frame generator — ends."""
        try:
            yield
        except BaseException as exc:
            self.resolve(False, abandoned=isinstance(exc, GeneratorExit))
            raise
        self.resolve(True)


class _ClusterTrainFuture(TrainFuture):
    """A routed training job: the shard stays accounted busy until the
    job resolves, and its outcome lands in the shard's ledger.

    No failover — a redriven optimizer run is not idempotent — so this
    is a thin accounting wrapper over the backend's future. Train jobs
    live outside the exactly-once ledger, but abandonment still
    releases the shard.
    """

    def __init__(self, shard: _Shard, inner: TrainFuture):
        super().__init__(inner.request)
        self._inner = inner
        self._slot = _Slot(shard)
        weakref.finalize(self, self._slot.release, False)

    def result(self, timeout: float | None = None):
        try:
            outcome = self._inner.result(timeout=timeout)
        except (TimeoutError, _FuturesTimeout):
            raise  # still running; the shard stays busy
        except BaseException:
            self._slot.release(False)
            raise
        self._slot.release(True)
        return outcome

    @property
    def done(self) -> bool:
        return self._inner.done


class _ClusterRolloutFuture(RolloutFuture):
    """A routed rollout: one :class:`_RoutedStream`, re-numbered.

    The consumer sees one uninterrupted, exactly-once trajectory
    whatever happened to the shards underneath. Single-consumer, like
    every future.
    """

    def __init__(self, cluster: "ClusterEngine", request: RolloutRequest):
        super().__init__(request)
        self._stream = _RoutedStream(cluster, request)
        self._entry = _LedgerEntry(cluster, self)

    def _frames(self, timeout: float | None) -> Iterator[StepFrame]:
        with self._entry.settling():
            for step, frame in enumerate(self._stream.frames(timeout)):
                self._collected.append(frame.state)
                yield StepFrame(step, frame.state)
            self.metrics = self._stream.inner.metrics

    @property
    def done(self) -> bool:
        return self._entry.closed


class _ClusterEnsembleFuture(EnsembleFuture):
    """A fanned-out ensemble: member chunks on shards, reduced at the router.

    Submission splits the M members into contiguous chunks — one per UP
    shard (never more chunks than members) — and places each chunk as
    its own :class:`_RoutedStream` by the salted ring key, so an
    ensemble's chunks spread instead of piling on the asset's primary,
    and each chunk fails over and redrives exactly like a rollout
    (members are deterministic, so a replayed chunk is bitwise the
    same). Each shard streams its chunk's raw member states; the router
    walks the chunk streams in lockstep through the shared
    :class:`~repro.ensemble.driver.SummaryStream`, so reduction,
    blow-up detection, and early-stop all happen exactly once, over the
    whole ensemble, with the same bits every other engine produces.
    Early-stop closes the chunk streams (their connections are
    discarded, not replayed).
    """

    def __init__(self, cluster: "ClusterEngine", request):
        super().__init__(request)
        self._cluster = cluster
        #: one routed stream per member chunk, in member order
        self._streams: list = []
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
                self._streams.append(_RoutedStream(
                    cluster, request.chunk(start, stop),
                    salt=ci if len(bounds) > 1 else None,
                    chunk=ci, members=stop - start,
                ))
        except BaseException:
            # unwind chunks already placed; nothing entered the ledger
            for stream in self._streams:
                stream.close()
            raise
        self._entry = _LedgerEntry(cluster, self)

    def _frames(self, timeout: float | None):
        from repro.ensemble.driver import MemberStream, SummaryStream

        chunks = [stream.frames(timeout) for stream in self._streams]
        summary = SummaryStream(
            self.request,
            [
                MemberStream(
                    stream.request.members,
                    (list(f.members) for f in chunk),
                    abort=chunk.close,
                )
                for stream, chunk in zip(self._streams, chunks)
            ],
            trace=self._cluster.trace,
            component="router",
        )
        try:
            with self._entry.settling():
                for frame in summary.frames():
                    self._collected.append(frame)
                    yield frame
                if not summary.report.early_stopped:
                    # the driver read every frame but not the chunks' end
                    # of stream: run them out, so each gives its shard
                    # back as completed and its connection to the pool
                    for chunk in chunks:
                        for _ in chunk:
                            pass
                self.stability = summary.report
                self.metrics = {
                    "members": len(list(self.request.members)),
                    "chunks": len(self._streams),
                    "shards": [stream.shard_id for stream in self._streams],
                }
        finally:
            # a chunk the driver never got to start still holds its shard
            for stream in self._streams:
                stream.close()

    @property
    def done(self) -> bool:
        return self._entry.closed


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
        self.trace = TraceBuffer()
        #: structured operational record: health transitions, spills,
        #: redrives — queryable via :meth:`events`
        self.event_log = EventLog()
        self._metrics = MetricsRegistry()
        #: the routing ledger: ``{field: counter}`` over :data:`_SERIES`
        self._ledger = {
            field: self._metrics.counter(name, help)
            for field, (name, help) in _SERIES.items()
        }
        self._shards: dict[str, _Shard] = {
            sid: _Shard(sid, engine, self._ledger, self._on_shard_transition)
            for sid, engine in items
        }
        self._ring = HashRing(
            [sid for sid, _ in items], replicas=RING_REPLICAS
        )
        self._spill_threshold = spill_threshold
        self._caps = EngineCapabilities.intersection(
            "cluster", [engine.capabilities() for _, engine in items]
        )
        self._closed = False
        self._monitor: HealthMonitor | None = None
        if health_interval_s is not None:
            self._monitor = HealthMonitor(
                list(self._shards.values()), interval_s=health_interval_s
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
        """The intersection of every shard's declared capabilities."""
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
                self._ledger["spills"].inc(
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

    def _on_shard_transition(self, shard_id: str, state: ShardState) -> None:
        """Shard health observer (runs outside the shard lock)."""
        self._ledger["transitions"].inc(shard=shard_id, to=state.value)
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
    ) -> None:
        """Broadcast a checkpoint registration (shard-visible path)."""
        self._broadcast(
            "register_checkpoint",
            lambda e: e.register_checkpoint(name, path, expect_config),
        )

    def register_graph(self, key: str, graphs: Sequence[LocalGraph]) -> None:
        """Broadcast an in-memory partitioned graph to every shard.

        Remote shards receive it over the wire as ``.npy`` frames —
        this is how assets reach shards with disjoint filesystems.
        """
        self._broadcast(
            "register_graph", lambda e: e.register_graph(key, graphs)
        )

    def register_graph_dir(self, key: str, directory: str | Path) -> None:
        """Broadcast a graph-directory registration (shard-visible path)."""
        self._broadcast(
            "register_graph_dir",
            lambda e: e.register_graph_dir(key, directory),
        )

    def _ask_shards(self, call, skip=(ShardState.DOWN,)) -> Iterator[tuple]:
        """``(shard_id, call(engine))`` for every shard not in a ``skip``
        state; a shard whose transport dies answering is marked DOWN and
        skipped, so the caller always sees the reachable cluster."""
        for sid, shard in self._shards.items():
            if shard.state in skip:
                continue
            try:
                answer = call(shard.engine)
            except TransportError:
                shard.mark_down()
                continue
            yield sid, answer

    def _intersection_query(self, getter) -> list:
        """Sorted intersection of a names query across UP shards."""
        answers = [
            set(names) for _, names in self._ask_shards(
                getter, skip=(ShardState.DOWN, ShardState.DRAINING)
            )
        ]
        if not answers:
            states = {sid: s.state.value for sid, s in self._shards.items()}
            raise NoShardAvailable(
                f"no UP shard answered the asset query: states={states}"
            )
        return sorted(set.intersection(*answers))

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
        shard, _ = self._route(request.model, request.graph)
        return _ClusterTrainFuture(shard, shard.submit(request))

    # -- stats ---------------------------------------------------------------

    def cluster_stats(self) -> ClusterStats:
        """The routing ledger + per-shard status table: the registry's
        ``repro_cluster_*`` series read at one instant, next to each
        shard's live state and ``in_flight``."""
        ledger = self._ledger

        def count(field: str, **labels) -> int:
            return int(ledger[field].value(**labels))

        with self._metrics.atomic():
            spills = ledger["spills"].samples()
            shards = tuple(
                ShardStatus(
                    shard_id=sid,
                    state=shard.state.value,
                    in_flight=shard.in_flight,
                    routed=count("routed", shard=sid),
                    spilled=int(sum(n for labels, n in spills.items()
                                    if ("target", sid) in labels)),
                    redriven=count("redriven", shard=sid),
                    completed=count("outcomes", shard=sid, outcome="completed"),
                    failed=count("outcomes", shard=sid, outcome="failed"),
                )
                for sid, shard in self._shards.items()
            )
            return ClusterStats(
                shards=shards,
                accepted=count("accepted"),
                completed=count("resolved", outcome="completed"),
                failed=count("resolved", outcome="failed"),
                redrives=count("redrives"),
                spills=int(sum(spills.values())),
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
        for _, shard_spans in self._ask_shards(lambda e: e.get_trace(trace_id)):
            spans.extend(shard_spans)
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
        ``repro_cluster_*`` counters are router-side (their ``shard``
        label, where present, says which shard the router meant). DOWN
        shards are skipped (they cannot answer); a
        shard that dies during the query is marked DOWN and skipped
        likewise, so the merge always reflects the reachable cluster —
        and so does :meth:`stats`, the label-blind view of it.
        """
        merged = MetricsRegistry.from_snapshot(self._metrics.snapshot())
        for sid, registry in self._ask_shards(lambda e: e.metrics_registry()):
            merged.merge(registry.relabel(shard=sid))
        return merged
