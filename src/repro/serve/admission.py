"""Admission control: queue caps, per-request deadlines, load shedding.

An unbounded request queue converts overload into unbounded latency —
every request is eventually served, but the tail grows with the backlog
until nobody gets a useful answer. Admission control trades completeness
for bounded latency: requests beyond a configurable queue depth are
*shed* at submission with a typed rejection (:class:`QueueFull`), and
requests whose deadline passes while they wait are *expired* at dequeue
(:class:`DeadlineExpired`) instead of wasting a batch slot on an answer
the client has already given up on. ``benchmarks/test_serve_overload.py``
measures the effect: with shedding, the p50 latency of *accepted*
requests stays bounded under a burst that degrades an unbounded queue.

The controller also owns the queue-wait histogram surfaced through the
service stats (log-spaced buckets; rendered as bucket-bound quantiles
by :func:`repro.serve.metrics.stats_markdown`).
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import threading
import time
from dataclasses import dataclass, field


class RequestRejected(RuntimeError):
    """Base of typed admission rejections (maps to a wire error code).

    Thread safety: exception instances are not shared; raising/catching
    is safe anywhere. Determinism: rejections depend only on queue
    state and clock at submission, never on request content.
    """

    #: stable machine-readable code, mirrored by the transport layer
    code = "rejected"


class QueueFull(RequestRejected):
    """Shed at submission: the pending queue is at its configured cap."""

    code = "queue_full"


class DeadlineExpired(RequestRejected):
    """Shed at dequeue: the deadline passed while the request queued."""

    code = "deadline_expired"


#: Upper bucket bounds (seconds) of the queue-wait histogram; the
#: implicit final bucket is +inf. Log-spaced 1 ms .. 30 s.
WAIT_BUCKETS_S = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission policy knobs (immutable; validated at construction).

    ``max_queue_depth`` caps how many requests may be *pending* (not yet
    collected into a batch); ``None`` disables shedding. A submission
    arriving at a full queue is rejected with :class:`QueueFull`.

    ``default_deadline_s`` is the queue-wait budget applied to requests
    that do not carry their own ``deadline_s``; ``None`` means requests
    without an explicit deadline never expire.
    """

    max_queue_depth: int | None = None
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0 (or None)")


@dataclass
class WaitHistogram:
    """Bucketed histogram of queue-wait seconds (snapshot).

    Counts are *per bucket*, not cumulative: ``counts[i]`` is the
    number of observations in ``(bounds_s[i-1], bounds_s[i]]``, with
    ``counts[-1]`` the overflow bucket above ``bounds_s[-1]``.
    Snapshots are plain data: safe to share across threads once
    returned.
    """

    bounds_s: tuple = WAIT_BUCKETS_S
    counts: list = field(default_factory=lambda: [0] * (len(WAIT_BUCKETS_S) + 1))
    total: int = 0
    sum_s: float = 0.0

    def observe(self, waited_s: float) -> None:
        """Count one wait into its bucket (the caller synchronises).

        The one bucketing rule every live histogram shares: the first
        bucket whose upper bound is ``>= waited_s``, else the overflow.
        """
        self.counts[bisect.bisect_left(self.bounds_s, waited_s)] += 1
        self.total += 1
        self.sum_s += waited_s

    def _snapshot(self) -> "WaitHistogram":
        """A copy later :meth:`observe` calls cannot reach."""
        return dataclasses.replace(self, counts=list(self.counts))

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1).

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * total`` (``inf`` when it falls in the
        overflow bucket, ``0.0`` when the histogram is empty).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for bound, count in zip(self.bounds_s, self.counts):
            seen += count
            if seen >= target:
                return bound
        return math.inf

    def merge(self, other: "WaitHistogram") -> "WaitHistogram":
        """Combine two snapshots bucket-wise (cluster-wide aggregation).

        Pure function over plain data; both histograms must share the
        same bucket bounds (they always do inside one code version —
        a mismatch raises :class:`ValueError` rather than mis-binning).
        """
        if self.bounds_s != other.bounds_s:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds_s} != {other.bounds_s}"
            )
        return WaitHistogram(
            bounds_s=self.bounds_s,
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            total=self.total + other.total,
            sum_s=self.sum_s + other.sum_s,
        )

    def to_dict(self) -> dict:
        """JSON-able form (used by the stats wire message)."""
        return {
            "bounds_s": list(self.bounds_s),
            "counts": list(self.counts),
            "total": self.total,
            "sum_s": self.sum_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WaitHistogram":
        return cls(
            bounds_s=tuple(d["bounds_s"]),
            counts=list(d["counts"]),
            total=int(d["total"]),
            sum_s=float(d["sum_s"]),
        )


@dataclass
class AdmissionStats:
    """Admission counters + queue-wait histogram (snapshot, plain data).

    ``accepted`` counts submissions that entered the queue, ``shed``
    counts :class:`QueueFull` rejections, ``expired`` counts requests
    dropped because their deadline had passed — whether while still
    pending or during a batch's collection window; the latter are also
    counted in ``expired_at_close`` (a subset of ``expired``). The
    histogram
    observes the queue wait of every request *leaving* the queue —
    both those handed to a batch and those shed as expired (whose wait
    is by definition at least their deadline), so under deadline
    pressure the upper buckets reflect shed traffic, not served
    latency.
    """

    accepted: int = 0
    shed: int = 0
    expired: int = 0
    expired_at_close: int = 0
    queue_wait: WaitHistogram = field(default_factory=WaitHistogram)

    def merge(self, other: "AdmissionStats") -> "AdmissionStats":
        """Combine two snapshots (cluster-wide aggregation): counters
        sum, histograms merge bucket-wise."""
        return AdmissionStats(
            accepted=self.accepted + other.accepted,
            shed=self.shed + other.shed,
            expired=self.expired + other.expired,
            expired_at_close=self.expired_at_close + other.expired_at_close,
            queue_wait=self.queue_wait.merge(other.queue_wait),
        )

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "shed": self.shed,
            "expired": self.expired,
            "expired_at_close": self.expired_at_close,
            "queue_wait": self.queue_wait.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdmissionStats":
        return cls(
            accepted=int(d["accepted"]),
            shed=int(d["shed"]),
            expired=int(d["expired"]),
            # absent in snapshots from pre-scheduler peers
            expired_at_close=int(d.get("expired_at_close", 0)),
            queue_wait=WaitHistogram.from_dict(d["queue_wait"]),
        )


class AdmissionController:
    """Admission decisions + accounting for one request queue.

    Thread safety: all methods are safe to call concurrently (one lock
    guards the counters); the queue calls :meth:`admit` under its own
    lock so the depth it passes is exact, not racy. Determinism: given
    the same sequence of depths/deadlines/clock readings the decisions
    are identical — policy is pure, only the counters are stateful.
    """

    def __init__(self, config: AdmissionConfig | None = None):
        self.config = config or AdmissionConfig()
        self._lock = threading.Lock()
        self._accepted = 0
        self._shed = 0
        self._expired = 0
        self._expired_at_close = 0
        self._wait = WaitHistogram()

    # -- decisions -----------------------------------------------------------

    def admit(self, queue_depth: int, slots: int = 1) -> None:
        """Accept or shed a submission given the current pending depth.

        ``slots`` is how many queue slots the submission occupies — an
        M-member ensemble counts as M, so a large ensemble cannot
        starve the queue cap (``slots=1`` reduces to the classic
        ``depth >= cap`` check). Admission is all-or-nothing: either
        every slot fits under the cap or the whole submission is shed
        with :class:`QueueFull` (and ``shed`` counts all its slots).
        """
        if slots < 1:
            raise ValueError("slots must be >= 1")
        cap = self.config.max_queue_depth
        if cap is not None and queue_depth + slots > cap:
            with self._lock:
                self._shed += slots
            raise QueueFull(
                f"queue at capacity ({queue_depth}/{cap} pending, "
                f"{slots} slot(s) requested); request shed"
            )
        with self._lock:
            self._accepted += slots

    def effective_deadline_s(self, deadline_s: float | None) -> float | None:
        """Resolve a request's deadline against the configured default."""
        return self.config.default_deadline_s if deadline_s is None else deadline_s

    # -- accounting ----------------------------------------------------------

    def note_expired(self, waited_s: float) -> None:
        """Record one deadline-expired request shed while pending."""
        with self._lock:
            self._expired += 1
            self._wait.observe(waited_s)

    def note_expired_at_close(self, waited_s: float) -> None:
        """Record one request that expired *during* batch collection.

        Counted in ``expired`` (it was shed, not served) and also in
        ``expired_at_close`` so the two shed points stay separable.
        """
        with self._lock:
            self._expired += 1
            self._expired_at_close += 1
            self._wait.observe(waited_s)

    def note_dequeued(self, waited_s: float) -> None:
        """Record the queue wait of one request handed to a batch."""
        with self._lock:
            self._wait.observe(waited_s)

    def stats(self) -> AdmissionStats:
        """Snapshot the counters (consistent under the lock)."""
        with self._lock:
            return AdmissionStats(
                accepted=self._accepted,
                shed=self._shed,
                expired=self._expired,
                expired_at_close=self._expired_at_close,
                queue_wait=self._wait._snapshot(),
            )


def now() -> float:
    """The admission clock (``time.perf_counter``; one place to swap)."""
    return time.perf_counter()
