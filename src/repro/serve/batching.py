"""Streaming request handles and the shared deadline-shed path.

Concurrent rollout requests against the same ``(model, graph,
halo_mode, residual, precision)`` key are coalesced into one batch and
executed as a single tiled forward pass per step
(:mod:`repro.serve.tiling`). The queue that forms those batches is
:class:`~repro.serve.scheduler.ScheduledQueue`; this module holds what
a queued request is seen through from outside it.

The request type itself is the runtime layer's shared
:class:`~repro.runtime.api.RolloutRequest` — the same dataclass a
client hands to any :class:`~repro.runtime.api.Engine` is what the
queue batches and the executor runs, with no per-layer re-plumbing.

Results stream back through :class:`RolloutHandle`: frames are pushed
as each rollout step completes, so a client can consume a trajectory
incrementally while later steps are still being computed. A request
whose deadline passes while it waits never executes: the queue finishes
its handle through :func:`shed_expired` with the typed
:class:`~repro.serve.admission.DeadlineExpired`.
"""

from __future__ import annotations

import queue as queue_mod
import threading

import numpy as np

from repro.obs.trace import TraceBuffer, wall_from_perf
from repro.runtime.api import RolloutRequest
from repro.serve.admission import AdmissionController, DeadlineExpired


def shed_expired(
    req: RolloutRequest,
    handle: "RolloutHandle",
    now: float,
    admission: AdmissionController | None,
    trace: TraceBuffer | None,
    at_close: bool = False,
) -> None:
    """Finish ``handle`` with :class:`DeadlineExpired` and account it.

    The queue's terminal path for a request it will not execute
    (:class:`~repro.serve.scheduler.ScheduledQueue`): records the
    admission counter (``at_close=True`` for requests that expired
    *during* a batch's collection window rather than while pending),
    emits the terminal queue span, and delivers the typed rejection
    through the handle.
    """
    if admission is not None:
        if at_close:
            admission.note_expired_at_close(req.waited_s(now))
        else:
            admission.note_expired(req.waited_s(now))
    if trace is not None:
        trace.record_span(
            req.trace_id, "queue", "server",
            wall_from_perf(req.submitted_at), req.waited_s(now),
            status="failed", model=req.model, graph=req.graph,
            reason="deadline_expired",
        )
    handle._finish(
        DeadlineExpired(
            f"request {req.request_id} waited {req.waited_s(now) * 1e3:.1f}ms, "
            f"deadline was {req.deadline_s * 1e3:.1f}ms"
        )
    )


class RolloutHandle:
    """Client-side view of an in-flight request (stream or await).

    Frames arrive in step order, frame 0 being ``x0`` itself (matching
    :func:`repro.gnn.rollout.rollout`, which returns ``n_steps + 1``
    states). ``frames()`` yields them as they are produced; ``result()``
    blocks for the complete trajectory. A failure in the worker —
    including a typed admission rejection — is re-raised in the
    consumer.

    Thread safety: one producer (the worker) and one consumer (the
    client thread) are the supported topology; ``frames()``/``result()``
    must not be iterated from two threads at once. ``done`` may be
    polled from anywhere. Determinism: frames are deep-copied on push,
    so a trajectory read from the handle is bitwise identical to the
    worker's computation regardless of consumer timing.
    """

    _DONE = object()

    def __init__(self, request: RolloutRequest):
        self.request = request
        self.metrics = None  # RequestMetrics, attached on completion
        self._frames: queue_mod.Queue = queue_mod.Queue()
        self._done = threading.Event()
        self._error: BaseException | None = None
        self._collected: list[np.ndarray] = []

    # -- producer side (service internals) -----------------------------------

    def _push_frame(self, state: np.ndarray) -> None:
        self._frames.put(np.array(state, copy=True))

    def _finish(self, error: BaseException | None = None) -> None:
        self._error = error
        self._frames.put(self._DONE)
        self._done.set()

    # -- consumer side -------------------------------------------------------

    def frames(self, timeout: float | None = 60.0):
        """Yield frames incrementally (``n_steps + 1`` of them).

        ``timeout`` is a per-frame inactivity bound: it caps how long
        to wait for the *next* frame, not the whole trajectory. Raises
        :class:`TimeoutError` when the producer goes quiet.
        """
        while True:
            try:
                item = self._frames.get(timeout=timeout)
            except queue_mod.Empty:
                raise TimeoutError(
                    f"request {self.request.request_id}: no frame within "
                    f"{timeout}s"
                ) from None
            if item is self._DONE:
                if self._error is not None:
                    raise self._error
                return
            self._collected.append(item)
            yield item

    def result(self, timeout: float | None = 60.0) -> list[np.ndarray]:
        """Block until done; return the full trajectory (incl. frame 0).

        ``timeout`` bounds each frame's arrival (see :meth:`frames`).
        """
        for _ in self.frames(timeout=timeout):
            pass
        return self._collected

    @property
    def done(self) -> bool:
        """Whether the request finished (successfully or not)."""
        return self._done.is_set()
