"""LocalEngine: the serving stack, run inline on the calling thread.

The thinnest :class:`~repro.runtime.api.Engine`: no worker threads, no
sockets. It owns an :class:`~repro.serve.service.InferenceService` it
never starts; a submission is enqueued like any other and then the
*calling* thread runs the worker loop's own step — collect a batch,
execute it — until its request is served
(:meth:`~repro.serve.service.InferenceService._serve_inline`). There is
therefore exactly one place in the stack where a batch is executed,
measured and traced, and a ``LocalEngine`` trajectory is bitwise
identical to a pooled or remote one *by construction*; its spans
(``admission``/``queue``/``tile``/``execute``) and stats rows are the
ones every other engine reports.

Use it for scripts, tests, and notebooks where batching across clients
has nothing to batch; swap the URL to ``pool://`` or ``tcp://…`` when
concurrency arrives — the calling code does not change.
"""

from __future__ import annotations

from concurrent.futures import Future

from repro.runtime.api import EngineCapabilities, TrainFuture, TrainRequest
from repro.runtime.pooled import _ExecutorTrainFuture, _ServiceEngine
from repro.serve import InferenceService, ServeConfig

_CAPABILITIES = EngineCapabilities(
    transport="local", training=True, in_memory_assets=True
)


class LocalEngine(_ServiceEngine):
    """Inline engine over in-process assets (see module docstring).

    The in-process engine body (:class:`~repro.runtime.pooled.
    _ServiceEngine`) in its second mode: it never starts workers, it
    serves through ``_serve_inline``, and it runs a train job on the
    calling thread.

    Thread safety: asset registration and submission may be called from
    any thread (everything goes through the service's thread-safe API);
    a submitted request executes on a *submitting* thread, so concurrent
    submissions run concurrently — same-key ones may coalesce into one
    caller's batch, the other caller then just waits on its handle.
    Determinism: execution is the shared batch step, so results are
    bitwise equal to every other engine and to a hand-wired
    ``rollout()``.
    """

    def __init__(self, request_timeout_s: float = 120.0):
        self._service = InferenceService(
            ServeConfig(
                # the caller is the worker: a collection window would
                # only be this thread waiting on itself
                max_wait_s=0.0,
                request_timeout_s=request_timeout_s,
            )
        )

    def capabilities(self) -> EngineCapabilities:
        return _CAPABILITIES

    def close(self) -> None:
        """Nothing to release (no threads, no sockets); idempotent."""

    def _serve(self, request):
        return self._service._serve_inline(request)

    def _submit_train(self, request: TrainRequest) -> TrainFuture:
        finished: Future = Future()
        # inline: a failing job raises here, at submission
        finished.set_result(self._service.execute_train(request))
        return _ExecutorTrainFuture(request, finished)
