"""Bounded structured event log (cluster lifecycle, one line per event).

Where counters answer "how many", the event log answers "what happened
when": shard health transitions, failover redrives, spill decisions,
and evictions each append one typed :class:`Event` with wall-clock
time and free-form attributes. The log is a bounded ring (like
:class:`repro.obs.trace.TraceBuffer`) so a flapping shard cannot grow
a process without bound; consumers read it via
:meth:`repro.cluster.ClusterEngine.events` or render it with
:func:`events_markdown`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence


#: Events an :class:`EventLog` keeps (beyond it, the oldest is dropped).
EVENT_CAPACITY = 1024


@dataclass(frozen=True)
class Event:
    """One structured occurrence: kind, wall-clock time, attributes."""

    kind: str
    wall_s: float
    attrs: dict = field(default_factory=dict)


class EventLog:
    """Lock-guarded ring of the last :data:`EVENT_CAPACITY` events
    (oldest evicted)."""

    def __init__(self) -> None:
        self._events: deque = deque(maxlen=EVENT_CAPACITY)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def emit(self, kind: str, **attrs) -> Event:
        """Append one event stamped with the current wall clock."""
        event = Event(kind=kind, wall_s=time.time(), attrs=attrs)
        with self._lock:
            self._events.append(event)
        return event

    def events(self, kind: str | None = None) -> list:
        """Buffered events oldest-first, optionally filtered by kind."""
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


def events_markdown(events: Sequence[Event]) -> str:
    """Human-readable table of events (chronological)."""
    if not events:
        return "(no events)"
    header = "| wall clock | event | attrs |"
    rule = "|---|---|---|"
    rows = []
    for e in events:
        stamp = time.strftime("%H:%M:%S", time.localtime(e.wall_s))
        stamp += f".{int((e.wall_s % 1) * 1000):03d}"
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(e.attrs.items()))
        rows.append(f"| {stamp} | {e.kind} | {attrs} |")
    return "\n".join([header, rule, *rows])
