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

Results stream back through :class:`RolloutHandle` — a
:class:`~repro.runtime.api.RolloutFuture`, the same future type every
engine hands out, so the service's in-flight request *is* the engine's:
frames are pushed as each rollout step completes, so a client can
consume a trajectory incrementally while later steps are still being
computed. A request whose deadline passes while it waits never
executes: the queue finishes its handle through :func:`shed_expired`
with the typed :class:`~repro.serve.admission.DeadlineExpired`.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from typing import Iterator

import numpy as np

from repro.obs.trace import TraceBuffer, wall_from_perf
from repro.runtime.api import RolloutFuture, RolloutRequest, StepFrame
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


class RolloutHandle(RolloutFuture):
    """The service's in-flight rollout: the engine future itself.

    A :class:`~repro.runtime.api.RolloutFuture` whose frames are pushed
    by whoever executes the batch (``_push_frame`` / ``_finish``, the
    producer side) and read off an internal queue by the consumer. The
    stream life-cycle — one shared ``frames()`` iterator, ``result()``
    after a partial pass, a failed stream stays failed — is
    :class:`~repro.runtime.api.StreamFuture`'s; a failure in the worker,
    including a typed admission rejection, is re-raised in the
    consumer. ``timeout_s`` is the default per-frame wait (the
    service's ``request_timeout_s``): it caps how long to wait for the
    *next* frame, not the whole trajectory, and a quiet producer raises
    :class:`TimeoutError`.

    Thread safety: one producer (the worker) and one consumer (the
    client thread) are the supported topology; ``frames()``/``result()``
    must not be iterated from two threads at once. ``done`` may be
    polled from anywhere. Determinism: frames are deep-copied on push,
    so a trajectory read from the handle is bitwise identical to the
    worker's computation regardless of consumer timing.
    """

    _DONE = object()

    def __init__(self, request: RolloutRequest, timeout_s: float = 60.0):
        super().__init__(request)
        self._timeout_s = timeout_s
        self._queue: queue_mod.Queue = queue_mod.Queue()
        self._done = threading.Event()
        self._error: BaseException | None = None

    # -- producer side (service internals) -----------------------------------

    def _push_frame(self, state: np.ndarray) -> None:
        self._queue.put(np.array(state, copy=True))

    def _finish(self, error: BaseException | None = None) -> None:
        self._error = error
        self._queue.put(self._DONE)
        self._done.set()

    # -- consumer side -------------------------------------------------------

    def _frames(self, timeout: float | None) -> Iterator[StepFrame]:
        if timeout is None:
            timeout = self._timeout_s
        while True:
            try:
                item = self._queue.get(timeout=timeout)
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
            yield StepFrame(len(self._collected) - 1, item)

    @property
    def done(self) -> bool:
        """Whether the request finished (successfully or not)."""
        return self._done.is_set()
