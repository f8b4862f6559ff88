"""Shard health: typed states and the periodic background monitor.

A shard is in exactly one of three states:

* ``UP`` — routable; the primary placement target for its keys.
* ``DRAINING`` — administratively removed from routing (``drain()``);
  in-flight work completes, no new work is placed. Health probes keep
  running but never change the state — leaving DRAINING is an operator
  decision (``undrain()``), not a liveness observation.
* ``DOWN`` — unreachable; skipped by routing. Reached either by the
  monitor counting :data:`FAILURE_THRESHOLD` consecutive probe failures, or
  *immediately* when a request hits a transport failure (demand-driven
  detection — failover must not wait out a probe interval). A
  successful probe recovers a DOWN shard to UP.

The monitor is one daemon thread pinging every shard each
``interval_s``; probes are the engines' own thread-safe ``ping()``, so
probing concurrently with live traffic is safe.
"""

from __future__ import annotations

import enum
import threading
from typing import Sequence


#: consecutive failed probes that take an UP shard DOWN
FAILURE_THRESHOLD = 2


class ShardState(enum.Enum):
    """Routing state of one cluster shard (see module docstring)."""

    UP = "up"
    DRAINING = "draining"
    DOWN = "down"


class HealthMonitor:
    """Background prober flipping shards between UP and DOWN.

    ``shards`` is any sequence of objects exposing the small protocol
    the cluster's shard records implement: ``state`` (a
    :class:`ShardState`), ``probe()`` (raises on an unreachable
    backend), ``note_probe_ok()`` and ``note_probe_failed()`` (state
    transitions, internally locked; the shard counts consecutive
    failures against :data:`FAILURE_THRESHOLD`).

    Thread safety: ``start``/``stop`` are idempotent and callable from
    any thread; the probe loop only uses the shard protocol above.
    Determinism: none — health is an observation of a live system; it
    never affects computed bits, only *where* requests run.
    """

    def __init__(self, shards: Sequence, interval_s: float = 2.0):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self._shards = list(shards)
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "HealthMonitor":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="cluster-health", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=timeout)
            self._thread = None

    def probe_now(self) -> None:
        """Run one synchronous probe pass (tests; admin endpoints)."""
        self._probe_all()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval_s):
            self._probe_all()

    def _probe_all(self) -> None:
        for shard in self._shards:
            if shard.state is ShardState.DRAINING:
                continue  # operator-held; probes must not flip it
            try:
                shard.probe()
            except Exception:  # noqa: BLE001 - any failure means unhealthy
                shard.note_probe_failed()
            else:
                shard.note_probe_ok()
