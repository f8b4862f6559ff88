"""PooledEngine: the batched in-process service behind the Engine API.

Wraps :class:`~repro.serve.service.InferenceService` — dynamic request
batching, admission control (queue caps / deadlines / typed shedding),
the worker pool, graph + tiled-replica caches, and the stats table —
and adds the **training-job path**: a
:class:`~repro.runtime.api.TrainRequest` runs a fine-tuning job through
the same gradient-capable tiling the inference path uses, on a
dedicated background thread so training never blocks the inference
workers.

``repro.runtime.connect("pool://")`` builds one with a private service;
pass ``service=`` to mount the engine on a service you already run
(e.g. one that a :class:`~repro.serve.transport.ServeServer` is also
exposing on a socket).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future as _StdFuture
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

from repro.ensemble.api import EnsembleFuture, EnsembleRequest
from repro.gnn.architecture import MeshGNN
from repro.gnn.config import GNNConfig
from repro.graph.distributed import LocalGraph
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span
from repro.runtime.api import (
    Engine,
    EngineCapabilities,
    RolloutFuture,
    RolloutRequest,
    TrainFuture,
    TrainRequest,
    TrainResult,
)
from repro.serve.service import InferenceService, ServeConfig

_CAPABILITIES = EngineCapabilities(
    transport="pool", training=True, in_memory_assets=True
)


class _ExecutorTrainFuture(TrainFuture):
    """Engine future over a ``concurrent.futures`` training job."""

    def __init__(self, request: TrainRequest, inner: _StdFuture):
        super().__init__(request)
        self._inner = inner

    def result(self, timeout: float | None = None) -> TrainResult:
        return self._inner.result(timeout=timeout)

    @property
    def done(self) -> bool:
        return self._inner.done()


class _ServiceEngine(Engine):
    """The in-process engine body: an :class:`InferenceService` behind
    the Engine API.

    Assets, introspection and tracing are the service's; a streamed
    request's future is whatever the service hands out (its handle *is*
    the engine future). The two modes — :class:`PooledEngine`, and
    :class:`~repro.runtime.local.LocalEngine` run inline — supply
    ``capabilities``, ``_serve`` (how a streamed request reaches the
    service), ``_submit_train`` and ``close``.
    """

    _service: InferenceService

    # -- assets --------------------------------------------------------------

    def register_model(self, name: str, model: MeshGNN) -> None:
        self._service.register_model(name, model)

    def register_checkpoint(
        self,
        name: str,
        path: str | Path,
        expect_config: GNNConfig | None = None,
    ) -> None:
        self._service.register_checkpoint(name, path, expect_config)

    def register_graph(self, key: str, graphs: Sequence[LocalGraph]) -> None:
        self._service.register_graph(key, graphs)

    def register_graph_dir(self, key: str, directory: str | Path) -> None:
        self._service.register_graph_dir(key, directory)

    def model_names(self) -> list:
        return self._service.registry.names()

    def graph_keys(self) -> list:
        return self._service.graph_keys()

    # -- submission ----------------------------------------------------------

    def _submit_rollout(self, request: RolloutRequest) -> RolloutFuture:
        return self._serve(request)

    def _submit_ensemble(self, request: EnsembleRequest) -> EnsembleFuture:
        return self._serve(request)

    # -- stats / observability ------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        return self._service.metrics_registry()

    def get_trace(self, trace_id: str) -> list[Span]:
        """Spans from the service's trace ring (admission/queue/tile/execute)."""
        return self._service.get_trace(trace_id)


class PooledEngine(_ServiceEngine):
    """Dynamic-batching engine over an :class:`InferenceService`.

    Thread safety: fully shareable — submissions from any number of
    threads coalesce in the service's request queue; training jobs
    serialize on a single background worker (they are long compared to
    inference batches, and one at a time keeps the math of "what ran
    against which weights" trivial to reason about). Determinism:
    batching, worker scheduling, and training never change served bits
    (see the serving layer's contracts); a ``B == 1`` training job
    reproduces a direct ``train_model`` run exactly.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        service: InferenceService | None = None,
    ):
        if config is not None and service is not None:
            raise ValueError(
                "pass either config (private service) or service (shared), "
                "not both"
            )
        self._owns_service = service is None
        self._service = service if service is not None else InferenceService(config)
        self._service.start()
        self._train_pool: ThreadPoolExecutor | None = None
        self._train_lock = threading.Lock()
        self._closed = False

    @property
    def service(self) -> InferenceService:
        """The underlying service (e.g. to mount a ``ServeServer`` on)."""
        return self._service

    def capabilities(self) -> EngineCapabilities:
        return _CAPABILITIES

    def close(self) -> None:
        """Drain and stop (idempotent): the training worker always; the
        service only if this engine created it."""
        if self._closed:
            return
        self._closed = True
        with self._train_lock:
            pool, self._train_pool = self._train_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._owns_service:
            self._service.stop()

    def _serve(self, request):
        return self._service.submit(request)

    def _submit_train(self, request: TrainRequest) -> TrainFuture:
        # fail fast on unknown assets at submission, not inside the job
        self._service.registry.get(request.model)
        self._service._require_graph(request.graph)
        with self._train_lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            if self._train_pool is None:
                self._train_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="serve-train"
                )
            inner = self._train_pool.submit(self._service.execute_train, request)
        return _ExecutorTrainFuture(request, inner)
