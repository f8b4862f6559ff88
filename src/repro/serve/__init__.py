"""Batched surrogate-inference serving.

The paper trains consistent distributed mesh GNNs so they can replace
solver steps downstream; this subpackage is the machinery that turns a
trained model into a *service*:

* :mod:`repro.serve.registry` — named models loaded from checkpoints,
  with config-compatibility validation;
* :mod:`repro.serve.cache` — LRU cache of partitioned graph assets so
  repeated requests skip partitioning/halo-plan construction;
* :mod:`repro.serve.batching` — :class:`RolloutHandle`, the
  :class:`~repro.runtime.api.RolloutFuture` a queued request is
  consumed through (the service's handle *is* the engine future), and
  the shared deadline-shed path;
* :mod:`repro.serve.admission` — admission control: queue caps,
  per-request deadlines, load shedding with typed rejections;
* :mod:`repro.serve.scheduler` — the request queue with dynamic
  batching: per-key lanes (concurrent same-key requests coalesce into
  one batch), EDF dispatch with a starvation bound, one collector per
  key, sticky worker–key affinity with work stealing;
* :mod:`repro.serve.tiling` — block-diagonal graph replication that
  makes one batched forward bitwise-equal to per-request forwards, and
  the stitching of a rank world into one graph;
* :mod:`repro.serve.executor` — inference batches on the worker's own
  thread, streaming frames per step; training jobs over the threaded
  comm backend;
* :mod:`repro.serve.metrics` — the one table of exported series,
  :class:`ServeStats` as a view over a metrics registry, the
  per-request record, and the stats table;
* :mod:`repro.serve.service` — the in-process serving engine, one
  typed way in (``InferenceService.submit(request)``; fronted by
  :class:`repro.runtime.pooled.PooledEngine` and, run inline, by
  :class:`repro.runtime.local.LocalEngine`);
* :mod:`repro.serve.protocol` / :mod:`repro.serve.transport` — the
  length-prefixed socket wire format, the one strict codec that types
  every record crossing it by its own dataclass (:func:`to_wire` /
  :func:`from_wire`), and the :class:`ServeServer` front end (fronted
  by :class:`repro.runtime.remote.RemoteEngine`);
* :mod:`repro.serve.cli` — ``python -m repro serve`` (demo burst or
  ``--listen HOST:PORT`` network mode, ``--metrics-port`` scrape
  endpoint).

The pre-engine ``ServeClient`` / ``NetworkClient`` shims are gone;
:func:`repro.runtime.connect` is the one front door for local://,
pool:// and tcp:// serving alike.

The request type batched here IS the runtime layer's
:class:`~repro.runtime.api.RolloutRequest` — no per-layer dict
plumbing. See ``docs/architecture.md`` for the request lifecycle end
to end.
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    DeadlineExpired,
    QueueFull,
    RequestRejected,
)
from repro.runtime.api import BatchKey
from repro.serve.batching import RolloutHandle
from repro.serve.cache import GraphAsset, GraphCache
from repro.serve.executor import BatchExecution, execute_batch, execute_train_job
from repro.serve.metrics import (
    AdmissionStats,
    CacheStats,
    RegistryStats,
    RequestMetrics,
    SchedulerStats,
    ServeStats,
    WaitHistogram,
    stats_markdown,
)
from repro.serve.protocol import ProtocolError, from_wire, to_wire
from repro.serve.registry import IncompatibleModel, ModelNotFound, ModelRegistry
from repro.serve.scheduler import ScheduledQueue, lane_label
from repro.serve.service import InferenceService, ServeConfig
from repro.serve.tiling import split_states, stack_states, tile_local_graph
from repro.serve.transport import (
    RemoteServeError,
    ServeServer,
    TransportError,
    parse_endpoint,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "BatchExecution",
    "BatchKey",
    "CacheStats",
    "DeadlineExpired",
    "GraphAsset",
    "GraphCache",
    "IncompatibleModel",
    "InferenceService",
    "ModelNotFound",
    "ModelRegistry",
    "ProtocolError",
    "QueueFull",
    "RegistryStats",
    "RemoteServeError",
    "RequestMetrics",
    "RequestRejected",
    "RolloutHandle",
    "ScheduledQueue",
    "SchedulerStats",
    "ServeConfig",
    "ServeServer",
    "ServeStats",
    "TransportError",
    "WaitHistogram",
    "execute_batch",
    "execute_train_job",
    "from_wire",
    "lane_label",
    "parse_endpoint",
    "split_states",
    "stack_states",
    "stats_markdown",
    "tile_local_graph",
    "to_wire",
]
