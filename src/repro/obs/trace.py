"""Structured tracing: spans, trace IDs, and a bounded ring buffer.

A *trace* is the set of spans sharing one ``trace_id`` — minted once
per request at the Engine front door
(:class:`repro.runtime.api.RolloutRequest`) and propagated through the
wire protocol, the pooled queues, and cluster routing, so one rollout's
lifecycle can be reassembled across processes. A *span* is one timed
lifecycle stage (``admission``, ``queue``, ``tile``, ``execute``,
``serialize``, ``network``, ``route``, ``attempt``) with wall-clock
start, duration, ok/failed status, and free-form attributes.

Spans land in per-process :class:`TraceBuffer` ring buffers (bounded,
lock-guarded, droppable — tracing must never block or grow without
bound). Servers expose their buffer over the wire via the
``get_trace`` op; :func:`to_chrome` renders any span list as Chrome
``trace_event`` JSON for chrome://tracing, and :func:`trace_markdown`
as a human-readable table.

Cross-process alignment: span ``start_s`` is wall-clock epoch seconds.
Within one process spans are derived from ``time.perf_counter()``
timestamps and converted through a per-process anchor captured at
import (:func:`wall_from_perf`), so *durations* keep perf-counter
resolution while *starts* are comparable across machines (to clock
sync accuracy).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

#: Spans a :class:`TraceBuffer` keeps (beyond it, the oldest is dropped).
TRACE_CAPACITY = 2048

#: perf_counter -> wall clock anchor for this process (epoch seconds)
_WALL_ANCHOR = time.time() - time.perf_counter()


def wall_from_perf(t_perf: float) -> float:
    """Convert a ``time.perf_counter()`` timestamp to epoch seconds."""
    return _WALL_ANCHOR + t_perf


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace ID (collision-safe across processes)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class Span:
    """One timed lifecycle stage of one traced request.

    ``start_s`` is wall-clock epoch seconds (cross-process
    comparable), ``duration_s`` perf-counter-derived elapsed seconds.
    ``component`` names the recording vantage point (``client``,
    ``server``, ``router``); ``status`` is ``"ok"`` or ``"failed"``.
    Over the wire (the ``get_trace`` op) a span is its fields by name,
    typed by these annotations (:mod:`repro.serve.protocol`).
    """

    trace_id: str
    name: str
    component: str
    start_s: float
    duration_s: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)


class TraceBuffer:
    """Lock-guarded ring of the last :data:`TRACE_CAPACITY` spans
    (oldest evicted first).

    The only mutable tracing state a process holds. Thread-safe: the
    serving worker threads, the transport handler threads, and wire-op
    readers all share one buffer.
    """

    def __init__(self) -> None:
        self._spans: deque = deque(maxlen=TRACE_CAPACITY)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def record(self, span: Span) -> None:
        """Append one span."""
        with self._lock:
            self._spans.append(span)

    def record_span(
        self,
        trace_id: str,
        name: str,
        component: str,
        start_s: float,
        duration_s: float,
        status: str = "ok",
        **attrs,
    ) -> None:
        """Convenience: build and record a :class:`Span` in one call."""
        self.record(Span(
            trace_id=trace_id,
            name=name,
            component=component,
            start_s=start_s,
            duration_s=duration_s,
            status=status,
            attrs=attrs,
        ))

    @contextmanager
    def span(
        self, trace_id: str, name: str, component: str, **attrs
    ) -> Iterator[dict]:
        """Time a block as one span; an exception marks it ``failed``.

        Yields the (mutable) attrs dict so the block can attach results
        discovered mid-flight. Exceptions propagate after recording.
        """
        start = time.perf_counter()
        status = "ok"
        try:
            yield attrs
        except BaseException:
            status = "failed"
            raise
        finally:
            self.record(Span(
                trace_id=trace_id,
                name=name,
                component=component,
                start_s=wall_from_perf(start),
                duration_s=time.perf_counter() - start,
                status=status,
                attrs=attrs,
            ))

    def spans(self) -> list:
        """All buffered spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: str) -> list:
        """All buffered spans of one trace, sorted by start time."""
        with self._lock:
            matching = [s for s in self._spans if s.trace_id == trace_id]
        return sorted(matching, key=lambda s: (s.start_s, s.name))

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def to_chrome(spans: Sequence[Span]) -> dict:
    """Render spans as a Chrome ``trace_event`` JSON document.

    Each component becomes a "process" (pid) with a ``process_name``
    metadata event; spans are complete ("X") events with microsecond
    timestamps relative to the earliest span, so chrome://tracing and
    Perfetto lay the lifecycle out on one shared timeline.
    """
    events: list = []
    components = sorted({s.component for s in spans})
    pids = {c: i + 1 for i, c in enumerate(components)}
    for comp, pid in pids.items():
        events.append({
            "ph": "M",
            "pid": pid,
            "name": "process_name",
            "args": {"name": comp},
        })
    origin = min((s.start_s for s in spans), default=0.0)
    for s in sorted(spans, key=lambda s: s.start_s):
        args = {"trace_id": s.trace_id, "status": s.status, **s.attrs}
        events.append({
            "ph": "X",
            "pid": pids[s.component],
            "tid": 1,
            "name": s.name,
            "cat": s.status,
            "ts": (s.start_s - origin) * 1e6,
            "dur": s.duration_s * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def trace_markdown(spans: Sequence[Span]) -> str:
    """Human-readable table of one trace (chronological)."""
    ordered = sorted(spans, key=lambda s: (s.start_s, s.name))
    if not ordered:
        return "(no spans)"
    origin = ordered[0].start_s
    header = "| t+ (ms) | span | component | dur (ms) | status | attrs |"
    rule = "|---|---|---|---|---|---|"
    rows = []
    for s in ordered:
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(s.attrs.items()))
        rows.append(
            f"| {(s.start_s - origin) * 1e3:.2f} | {s.name} | {s.component} "
            f"| {s.duration_s * 1e3:.2f} | {s.status} | {attrs} |"
        )
    return "\n".join([header, rule, *rows])
