"""The request queue: per-key lanes, EDF dispatch, affinity.

Every submitted :class:`~repro.runtime.api.RolloutRequest` waits here
until a batch collector takes it. A single arrival-order line would let
the head-of-line request dictate the next batch — a multi-tenant mix of
``(model, graph, halo_mode, residual, precision)`` keys serializes
behind whichever key arrived first, two workers racing ``next_batch``
split one coalescible key into two half-full tiles, and a hot key
migrating across workers discards the warmed per-worker caches
(:class:`~repro.serve.executor.WorkerArenas`). :class:`ScheduledQueue`
therefore keeps **per-key pending lanes** and a policy loop that

* dispatches *disjoint* keys to idle workers concurrently — one lane's
  collection window never blocks another lane's dispatch, and a
  collecting worker closes its window early when other lanes are
  waiting with no idle worker to serve them (work-conserving, the
  Orca/vLLM continuous-batching rule);
* grants a key to **at most one collecting worker** at a time
  (``lane.collector``), so coalescible requests always land in the
  same tile instead of racing into two half-full ones;
* picks the next lane by **earliest-deadline-first** over each lane's
  pending requests (lanes without deadlines sort last), with an
  arrival-order tiebreak and a **starvation bound**: a lane passed
  over :data:`MAX_LANE_SKIPS` times must be served before any
  non-overdue lane;
* applies **sticky worker–key affinity**: a dispatched lane remembers
  its worker, and that worker prefers its own lanes on the next pull
  (its warm arena — tiled replicas are cached per asset and float32
  replicas process-wide, so the arena is a worker's only warm state);
  when the preferred worker is busy, any idle worker **steals** the
  lane (counted, and affinity re-pins to the thief).

Trajectory bits never depend on the scheduler: it only decides *which
worker runs which batch when*; batch execution is unchanged
(``tests/serve/test_scheduler_soak.py`` asserts bitwise identity vs
``local://`` across a mixed-tenant soak).

Thread safety: one condition variable guards all lanes; any number of
submitters and workers may run concurrently. Determinism: lane choice
is a pure function of lane contents, deadlines, skip counts, affinity
state and worker identity — never of request payloads.
"""

from __future__ import annotations

import itertools
import math
import threading
import time

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceBuffer
from repro.runtime.api import BatchKey, RolloutRequest
from repro.serve.admission import AdmissionController
from repro.serve.batching import RolloutHandle, shed_expired
from repro.serve.metrics import SchedulerStats, ServeStats, declare


#: how often an idle worker blocked in ``next_batch`` re-checks for a
#: grantable lane (submissions and closes notify it sooner)
_POLL_S = 1.0
#: the starvation bound: how many times an eligible lane may be passed
#: over before it must be served (tuning no caller ever varied)
MAX_LANE_SKIPS = 4


def lane_label(key: BatchKey) -> str:
    """Canonical human-readable label of one lane (metrics label value)."""
    kind = "residual" if key.residual else "direct"
    return f"{key.model}/{key.graph}/{key.halo_mode}/{kind}/{key.precision}"


class _Lane:
    """One key's pending requests + scheduling state (lock: the queue's)."""

    __slots__ = ("key", "label", "seq", "pending", "collector", "affinity",
                 "skips")

    def __init__(self, key: BatchKey, seq: int):
        self.key = key
        self.label = lane_label(key)
        self.seq = seq  # creation order; the final deterministic tiebreak
        self.pending: list[tuple[RolloutRequest, RolloutHandle]] = []
        self.collector: int | None = None  # worker currently collecting
        self.affinity: int | None = None  # worker whose caches are warm
        self.skips = 0  # times passed over while eligible (starvation bound)


class ScheduledQueue:
    """Per-key lanes + EDF/affinity dispatch: the service's one queue.

    ``submit`` / ``submit_many`` enqueue, :meth:`next_batch` hands a
    worker its next batch (``worker_id`` tells affinity who is asking).
    The policy counters and high-water marks are series in ``metrics``
    (the service's registry, so they outlive a queue rebuilt after
    ``stop()``; a queue built on its own gets a private one);
    :meth:`scheduler_stats` is their view. ``request_timeout_s`` is the
    default per-frame wait of the handles the queue hands out.

    Thread safety: fully thread-safe, one condition variable guards
    all lanes. Determinism: batch composition is a pure function of
    arrival order, keys, deadlines, worker identities and the timing
    parameters — never of request payloads; and the *bits* of every
    trajectory are scheduler-independent by construction.
    """

    def __init__(
        self,
        admission: AdmissionController | None = None,
        trace: TraceBuffer | None = None,
        affinity: bool = True,
        metrics: MetricsRegistry | None = None,
        request_timeout_s: float = 60.0,
    ) -> None:
        self._lanes: dict[BatchKey, _Lane] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._depth = 0
        self._idle = 0  # workers blocked in next_batch waiting for a lane
        self._admission = admission
        self._trace = trace
        self._affinity_on = affinity
        self._request_timeout_s = request_timeout_s
        self._lane_seq = itertools.count()
        self._metrics, self._m = declare(metrics)

    # -- submission ----------------------------------------------------------

    def submit(self, request: RolloutRequest) -> RolloutHandle:
        """Enqueue one request into its key's lane → streaming handle."""
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: "list[RolloutRequest]"
    ) -> "list[RolloutHandle]":
        """Enqueue several requests atomically → their handles.

        One admission decision covers the whole group (``slots=len``)
        against the *total* pending depth across lanes — either every
        request enters the queue under the depth cap or none does
        (:class:`~repro.serve.admission.QueueFull`), which is how an
        M-member ensemble counts as M queue slots without racing other
        submitters between members. The requests land in their keys'
        lanes in order (an ensemble's members share one key, so they
        fill one lane and tile together).
        """
        if not requests:
            raise ValueError("submit_many needs at least one request")
        handles = [RolloutHandle(r, self._request_timeout_s) for r in requests]
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self._admission is not None:
                self._admission.admit(self._depth, slots=len(requests))
            lane_peak = 0
            for request, handle in zip(requests, handles):
                lane = self._lanes.get(request.key)
                if lane is None:
                    lane = _Lane(request.key, next(self._lane_seq))
                    self._lanes[request.key] = lane
                lane.pending.append((request, handle))
                self._depth += 1
                lane_peak = max(lane_peak, len(lane.pending))
            with self._metrics.atomic():
                self._m["queue_depth_high_water"].set_max(self._depth)
                self._m["scheduler.lane_depth_high_water"].set_max(lane_peak)
            self._cond.notify_all()
        return handles

    # -- dispatch ------------------------------------------------------------

    def next_batch(
        self,
        max_batch_size: int,
        max_wait_s: float,
        worker_id: int = 0,
    ) -> list[tuple[RolloutRequest, RolloutHandle]] | None:
        """Collect the next batch for ``worker_id``, or ``None`` at drain.

        Blocks while nothing is grantable (re-checking every second)
        until the queue is closed and drained. See :meth:`_collect` for
        how a batch forms.
        """
        with self._cond:
            while True:
                batch = self._collect(max_batch_size, max_wait_s, worker_id)
                if batch is not None:
                    return batch
                if self._closed and self._depth == 0:
                    return None
                self._idle += 1
                try:
                    self._cond.wait(timeout=_POLL_S)
                finally:
                    self._idle -= 1

    def _poll_batch(
        self, max_batch_size: int, max_wait_s: float, worker_id: int = 0
    ) -> list[tuple[RolloutRequest, RolloutHandle]] | None:
        """:meth:`next_batch` without the wait: ``None`` when no lane is
        grantable right now (how a submitting thread serves inline)."""
        with self._cond:
            return self._collect(max_batch_size, max_wait_s, worker_id)

    def _collect(
        self, max_batch_size: int, max_wait_s: float, worker_id: int
    ) -> list[tuple[RolloutRequest, RolloutHandle]] | None:
        """Grant a lane and collect its batch (caller holds the lock).

        The scheduler grants one lane (EDF + affinity + starvation
        bound, see the module docstring), marks it collecting so no
        other worker can split the key, then lingers up to
        ``max_wait_s`` for more same-key requests — closing early when
        the batch fills, the lane runs dry while *other* lanes wait
        with no idle worker, or the queue closes. Deadlines are
        enforced twice: expired requests are shed when taken from a
        lane, and the whole batch is re-checked **at batch close** so a
        request that expired during the collection window is shed with
        :class:`~repro.serve.admission.DeadlineExpired` instead of
        executing; if that empties the batch the lane is released and
        another is granted. Returns ``None`` when no lane is grantable.
        """
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        while (lane := self._grant(worker_id)) is not None:
            batch: list = []
            deadline = time.perf_counter() + max_wait_s
            while len(batch) < max_batch_size:
                self._take_from_lane(lane, batch, max_batch_size)
                if len(batch) >= max_batch_size or self._closed:
                    break
                if batch and not lane.pending and self._idle == 0 \
                        and self._other_lane_waiting(lane):
                    # work-conserving early close: this worker's
                    # time is better spent on the waiting lane than
                    # idling for hypothetical same-key stragglers
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            self._take_from_lane(lane, batch, max_batch_size)
            live = self._close_batch(lane, batch, worker_id)
            if live is not None:
                return live
        return None

    def _grant(self, worker_id: int) -> _Lane | None:
        """Choose and lock the next lane for ``worker_id`` (or ``None``).

        Caller holds the lock. Policy order: starvation-overdue lanes
        first, then the worker's own affinity lanes, then all eligible
        lanes — each pool ordered earliest-deadline-first with an
        arrival-order tiebreak. Pops the granted lane's head into no
        batch yet; the collection loop takes from the lane.
        """
        now = time.perf_counter()
        self._shed_expired_pending(now)
        eligible = [
            lane for lane in self._lanes.values()
            if lane.pending and lane.collector is None
        ]
        if not eligible:
            return None

        def edf_key(lane: _Lane) -> tuple:
            deadlines = [
                req.deadline for req, _ in lane.pending
                if req.deadline is not None
            ]
            earliest = min(deadlines) if deadlines else math.inf
            return (earliest, lane.pending[0][0].submitted_at, lane.seq)

        arrival_first = min(
            eligible, key=lambda la: (la.pending[0][0].submitted_at, la.seq)
        )
        overdue = [
            lane for lane in eligible if lane.skips >= MAX_LANE_SKIPS
        ]
        if overdue:
            chosen = min(overdue, key=edf_key)
            if chosen is not min(eligible, key=edf_key):
                self._m["scheduler.starvation_overrides"].inc()
        else:
            pool = eligible
            on_affinity = False
            if self._affinity_on:
                mine = [
                    lane for lane in eligible if lane.affinity == worker_id
                ]
                if mine:
                    pool, on_affinity = mine, True
            chosen = min(pool, key=edf_key)
            if self._affinity_on:
                if on_affinity:
                    self._m["scheduler.affinity_hits"].inc()
                elif chosen.affinity is not None:
                    self._m["scheduler.affinity_steals"].inc()
        if chosen is not arrival_first and edf_key(chosen) < edf_key(arrival_first):
            self._m["scheduler.edf_preemptions"].inc()
        for lane in eligible:
            lane.skips = 0 if lane is chosen else lane.skips + 1
        chosen.collector = worker_id
        return chosen

    def _take_from_lane(
        self, lane: _Lane, batch: list, max_batch_size: int
    ) -> None:
        """Move live lane requests into ``batch`` (caller holds the lock)."""
        now = time.perf_counter()
        while lane.pending and len(batch) < max_batch_size:
            req, handle = lane.pending.pop(0)
            self._depth -= 1
            if req.expired(now):
                shed_expired(req, handle, now, self._admission, self._trace)
            else:
                batch.append((req, handle))

    def _close_batch(
        self, lane: _Lane, batch: list, worker_id: int
    ) -> list | None:
        """Finalize a collected batch (caller holds the lock).

        Re-checks every member's deadline — requests that expired
        *during* the collection window are shed here, at close, not
        executed. Returns the surviving batch, or ``None`` when
        everything expired (the caller then re-enters the grant loop).
        Releases the lane and re-pins its affinity to this worker.
        """
        now = time.perf_counter()
        live = []
        for req, handle in batch:
            if req.expired(now):
                shed_expired(
                    req, handle, now, self._admission, self._trace,
                    at_close=True,
                )
            else:
                live.append((req, handle))
        lane.collector = None
        if self._affinity_on:
            lane.affinity = worker_id
        self._cond.notify_all()
        if not live:
            return None
        with self._metrics.atomic():  # a dispatch lands with its waits
            self._m["scheduler.dispatches"].inc()
            for req, _ in live:
                waited_s = req.waited_s(now)
                if self._admission is not None:
                    self._admission.note_dequeued(waited_s)
                self._m["scheduler.lane_wait"].observe(waited_s, lane=lane.label)
        return live

    def _shed_expired_pending(self, now: float) -> None:
        # caller holds the lock
        for lane in self._lanes.values():
            if not lane.pending:
                continue
            kept = []
            for req, handle in lane.pending:
                if req.expired(now):
                    shed_expired(
                        req, handle, now, self._admission, self._trace
                    )
                    self._depth -= 1
                else:
                    kept.append((req, handle))
            lane.pending[:] = kept

    def _other_lane_waiting(self, lane: _Lane) -> bool:
        # caller holds the lock
        return any(
            other.pending and other.collector is None
            for other in self._lanes.values()
            if other is not lane
        )

    # -- introspection -------------------------------------------------------

    def depth(self) -> int:
        """Total pending (not yet collected) requests across lanes."""
        with self._cond:
            return self._depth

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    @property
    def depth_high_water(self) -> int:
        """Peak total pending depth ever recorded into the registry."""
        return int(self._m["queue_depth_high_water"].value())

    def _publish_levels(self) -> None:
        """Write the point-in-time gauges (depth, lanes, per-lane depth).

        Levels are written by their owner when the registry is
        collected, under the owner's lock; a drained lane reads 0.
        """
        with self._cond, self._metrics.atomic():
            self._m["queue_depth"].set(self._depth)
            self._m["scheduler.lanes"].set(
                sum(1 for lane in self._lanes.values() if lane.pending)
            )
            for lane in self._lanes.values():
                self._m["scheduler.lane_depth"].set(
                    len(lane.pending), lane=lane.label
                )

    def scheduler_stats(self) -> SchedulerStats:
        """The scheduler view of the registry recorded into."""
        self._publish_levels()
        return ServeStats.from_registry(self._metrics).scheduler

    def close(self) -> None:
        """Stop accepting requests; pending ones are still served."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
