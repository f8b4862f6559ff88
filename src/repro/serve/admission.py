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

The controller also records the queue-wait histogram surfaced through
the service stats (log-spaced buckets; rendered as bucket-bound
quantiles by :func:`repro.serve.metrics.stats_markdown`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry
from repro.serve.metrics import AdmissionStats, ServeStats, declare


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


class AdmissionController:
    """Admission decisions + accounting for one request queue.

    Thread safety: all methods are safe to call concurrently (the
    counters are series in ``metrics``, the service's registry — a
    controller built on its own gets a private one); the queue calls
    :meth:`admit` under its own lock so the depth it passes is exact,
    not racy. Determinism: given the same sequence of
    depths/deadlines/clock readings the decisions are identical —
    policy is pure, only the counters are stateful.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config or AdmissionConfig()
        self._metrics, self._m = declare(metrics)

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
            self._m["admission.shed"].inc(slots)
            raise QueueFull(
                f"queue at capacity ({queue_depth}/{cap} pending, "
                f"{slots} slot(s) requested); request shed"
            )
        self._m["admission.accepted"].inc(slots)

    def effective_deadline_s(self, deadline_s: float | None) -> float | None:
        """Resolve a request's deadline against the configured default."""
        return self.config.default_deadline_s if deadline_s is None else deadline_s

    # -- accounting ----------------------------------------------------------

    def note_expired(self, waited_s: float) -> None:
        """Record one deadline-expired request shed while pending."""
        with self._metrics.atomic():
            self._m["admission.expired"].inc()
            self._m["admission.queue_wait"].observe(waited_s)

    def note_expired_at_close(self, waited_s: float) -> None:
        """Record one request that expired *during* batch collection.

        Counted in ``expired`` (it was shed, not served) and also in
        ``expired_at_close`` so the two shed points stay separable — in
        one step, so no snapshot shows the subset ahead of the total.
        """
        with self._metrics.atomic():
            self._m["admission.expired_at_close"].inc()
            self.note_expired(waited_s)

    def note_dequeued(self, waited_s: float) -> None:
        """Record the queue wait of one request handed to a batch."""
        self._m["admission.queue_wait"].observe(waited_s)

    def stats(self) -> AdmissionStats:
        """The admission view of the registry recorded into."""
        return ServeStats.from_registry(self._metrics).admission


def now() -> float:
    """The admission clock (``time.perf_counter``; one place to swap)."""
    return time.perf_counter()
