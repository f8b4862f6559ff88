"""The unified runtime API: typed requests, results, and the Engine protocol.

The paper's pitch is a *consistent* distributed GNN surrogate — the
same mesh-partitioned model must produce identical answers wherever it
runs. This module is the contract that makes "wherever" a first-class
concept: one set of typed request/response dataclasses
(:class:`RolloutRequest`, :class:`StepFrame`, :class:`RolloutResult`,
:class:`TrainRequest`, :class:`TrainResult`) shared by every execution
layer, and one :class:`Engine` interface implemented by

* :class:`repro.runtime.local.LocalEngine` — the same service run
  inline on the calling thread (no worker threads, no sockets);
* :class:`repro.runtime.pooled.PooledEngine` — the batched in-process
  :class:`~repro.serve.service.InferenceService` (dynamic batching,
  admission control, worker pool) plus the training-job path;
* :class:`repro.runtime.remote.RemoteEngine` — the socket transport
  with persistent pooled connections.

``repro.runtime.connect("local://" | "pool://" | "tcp://host:port")``
builds the right engine from a URL. Each engine declares a fixed
record, :meth:`Engine.capabilities`, of the two things that differ
between engines, and unsupported requests are rejected with the typed
:class:`CapabilityError` (e.g. a :class:`TrainRequest` against a remote
engine — training does not cross the wire) instead of failing somewhere
deep in a transport.

Thread safety: the dataclasses are treated as immutable after
construction; engines state their own contracts. Determinism: requests
canonicalize their arrays to ``float64`` at construction, so every
engine sees the same bits — the conformance suite
(``tests/runtime/test_engine_conformance.py``) asserts bitwise-equal
trajectories across all three engines.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.comm.modes import HaloMode
from repro.obs.trace import mint_trace_id

if TYPE_CHECKING:  # imports for annotations only — api must stay a leaf module
    from pathlib import Path

    from repro.ensemble.api import EnsembleFuture, EnsembleRequest
    from repro.gnn.architecture import MeshGNN
    from repro.gnn.config import GNNConfig
    from repro.graph.distributed import LocalGraph
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Span
    from repro.serve.metrics import ServeStats

_request_ids = itertools.count()


class CapabilityError(RuntimeError):
    """A typed rejection: this engine does not support the request.

    Raised at submission (never mid-execution) when a request names a
    capability the engine lacks — a :class:`TrainRequest` against a
    remote engine, or in-memory asset registration across a process
    boundary. Deterministic: depends only on the engine's capabilities
    and the request type, never on load or timing.
    """


class ShardError(RuntimeError):
    """A failure attributable to one shard of a cluster engine.

    Raised by :class:`repro.cluster.ClusterEngine` when an operation
    against a specific backend fails in a way the cluster cannot (or
    must not) transparently recover — e.g. a broadcast registration
    dying on one shard. ``shard_id`` names the backend so operators can
    act on the right host; the underlying cause is chained as
    ``__cause__``.
    """

    def __init__(self, message: str, shard_id: str | None = None):
        super().__init__(message)
        #: the cluster shard the failure is attributed to (or None)
        self.shard_id = shard_id


class NoShardAvailable(ShardError):
    """No shard could serve the request: every candidate is DOWN,
    draining, or failed during redrive.

    ``attempts`` carries the per-shard failure log as ``(shard_id,
    reason)`` pairs — the full story of what was tried, in order — so
    a cluster-level failure is diagnosable without server logs.
    """

    def __init__(self, message: str, attempts: Sequence = ()):
        super().__init__(message)
        #: ordered (shard_id, reason) pairs of the failed attempts
        self.attempts = tuple(attempts)


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine can do: a fixed record each engine declares.

    ``transport`` is the URL scheme of the engine (``local`` / ``pool``
    / ``tcp`` / ``cluster``). ``training`` gates :class:`TrainRequest`
    submission; ``in_memory_assets`` is whether ``register_model``
    accepts a live model with no serialization (same process).
    Everything else — rollouts, ensembles, the float32 tier, in-memory
    graph registration (a remote engine uploads the graph as ``.npy``
    frames) — every engine serves, so it has no flag.

    :meth:`intersection` computes what a *group* of engines can all do
    — a cluster's record.
    """

    transport: str
    training: bool
    in_memory_assets: bool

    @classmethod
    def intersection(
        cls, transport: str, members: "Sequence[EngineCapabilities]"
    ) -> "EngineCapabilities":
        """The capability set every member supports (a cluster's record).

        Pure function: a request is cluster-servable only if *any*
        shard it may be routed (or failed over) to can serve it, so
        each boolean capability is the AND over members.
        """
        members = list(members)
        if not members:
            raise ValueError("capability intersection needs at least one member")
        return cls(
            transport=transport,
            training=all(c.training for c in members),
            in_memory_assets=all(c.in_memory_assets for c in members),
        )


@dataclass(frozen=True)
class BatchKey:
    """Requests coalesce iff every field matches.

    Thread safety: immutable value object, safe to share.
    Determinism: equality/hash derive purely from the five fields, so
    batch formation depends only on request content and arrival order.
    ``precision`` is part of the key on purpose: a float32 request must
    never tile into the same block-diagonal batch as a float64 one —
    mixed-precision tiling would silently promote (or demote) a
    co-batched stranger's trajectory.
    """

    model: str
    graph: str
    halo_mode: str | None
    residual: bool
    precision: str = "float64"


@dataclass
class StreamRequest:
    """What every streamed request kind carries (the request-side
    mirror of :class:`StreamFuture`): the fields, their front-door
    validation, the coalescing :attr:`key`, engine-default resolution
    and the deadline clock. Submit one of its kinds —
    :class:`RolloutRequest` or
    :class:`repro.ensemble.api.EnsembleRequest`.

    ``x0`` is the *global* initial state ``(n_global_nodes, node_in)``;
    execution scatters it to ranks by global ID and assembles global
    frames back. ``halo_mode=None`` means the default ``n-a2a``
    (resolved at submission via :meth:`resolved`). ``deadline_s`` is an
    optional queue-wait budget: a request still pending that many
    seconds after submission is shed with
    :class:`~repro.serve.admission.DeadlineExpired` instead of being
    executed.

    ``trace_id`` is minted here — at the Engine front door — and rides
    the request through every layer (wire header, pooled queue, cluster
    routing and failover redrives), correlating the typed spans each
    layer records (:mod:`repro.obs.trace`). Pass an explicit ID to join
    an existing trace; :meth:`resolved` and redrives preserve it.

    ``precision`` selects the inference tier: ``"float64"`` (default)
    is the canonical bitwise-consistent path; ``"float32"`` opts into
    the bounded-error low-precision tier (served from a float32 cast of
    the registered model; frames come back in float32). The field rides
    the wire header, the pooled queue, and cluster failover redrives
    unchanged, and is part of :attr:`key` so mixed-precision requests
    never tile together. Every engine serves both tiers.

    The dataclass is also the request's wire schema: the fields ride
    the message header by name, typed by their annotations
    (:mod:`repro.serve.protocol`), except those declared
    ``metadata={"wire": False}``.

    Thread safety: treated as immutable after construction — queues and
    workers only read it; do not mutate a submitted request.
    Determinism: ``x0`` is canonicalized to ``float64`` once here, so
    every downstream consumer (tiling, executor, transport) sees the
    same bits regardless of the input's original dtype — the float32
    tier casts exactly once, at execution, from those canonical bits.
    """

    model: str
    graph: str
    #: the state travels as the message's ``.npy`` blob, not in the JSON
    x0: np.ndarray = field(metadata={"wire": False})
    n_steps: int
    halo_mode: str | None = None
    residual: bool = False
    precision: str = "float64"
    deadline_s: float | None = None
    #: process-local identity: the serving side stamps its own
    request_id: int = field(
        default_factory=lambda: next(_request_ids), metadata={"wire": False}
    )
    submitted_at: float = field(
        default_factory=time.perf_counter, metadata={"wire": False}
    )
    trace_id: str = field(default_factory=mint_trace_id)

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.trace_id:
            raise ValueError("trace_id must be a non-empty string")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None)")
        if self.halo_mode is not None:
            self.halo_mode = HaloMode.parse(self.halo_mode).value
        if self.precision not in ("float64", "float32"):
            raise ValueError(
                f"precision must be 'float64' or 'float32', "
                f"got {self.precision!r}"
            )
        self.x0 = np.asarray(self.x0, dtype=np.float64)
        if self.x0.ndim != 2:
            raise ValueError(f"x0 must be 2-D (nodes, features), got {self.x0.shape}")

    def resolved(self, default_deadline_s: float | None = None) -> StreamRequest:
        """Fill defaults into unset fields (``self`` if complete): the
        halo mode ``n-a2a`` and the engine's ``default_deadline_s``.

        Pure function: returns a new request of the same kind (same
        ``request_id`` / ``submitted_at`` / ``trace_id``) when a default
        applies, so the original is never mutated after submission.
        """
        changes: dict = {}
        if self.halo_mode is None:
            changes["halo_mode"] = HaloMode.NEIGHBOR_A2A.value
        if self.deadline_s is None and default_deadline_s is not None:
            changes["deadline_s"] = default_deadline_s
        return dataclasses.replace(self, **changes) if changes else self

    @property
    def key(self) -> BatchKey:
        """The coalescing key (deadline deliberately excluded — requests
        with different deadlines still share a batch)."""
        return BatchKey(
            self.model, self.graph, self.halo_mode, self.residual,
            self.precision,
        )

    @property
    def deadline(self) -> float | None:
        """Absolute expiry on the ``perf_counter`` clock, or ``None``."""
        if self.deadline_s is None:
            return None
        return self.submitted_at + self.deadline_s

    def expired(self, now: float | None = None) -> bool:
        """Whether the queue-wait deadline has passed (``False`` if none)."""
        if self.deadline_s is None:
            return False
        return (time.perf_counter() if now is None else now) > self.deadline

    def waited_s(self, now: float | None = None) -> float:
        """Seconds spent since submission (queue wait until dequeued)."""
        return (time.perf_counter() if now is None else now) - self.submitted_at


@dataclass
class RolloutRequest(StreamRequest):
    """One rollout (``n_steps >= 1``) or single-step (``n_steps == 1``)
    surrogate query — the request type every engine accepts. Exactly
    the shared :class:`StreamRequest` shape: frames stream back as
    :class:`StepFrame`, the result is a :class:`RolloutResult`.
    """


@dataclass(frozen=True)
class StepFrame:
    """One streamed trajectory frame: the global state after ``step``.

    ``step`` is 0-based with frame 0 being ``x0`` itself (matching
    :func:`repro.gnn.rollout.rollout`, which returns ``n_steps + 1``
    states). Immutable record; the array is owned by the consumer once
    yielded — engines never mutate a dispatched frame.
    """

    step: int
    state: np.ndarray


@dataclass
class RolloutResult:
    """The complete trajectory of one :class:`RolloutRequest`.

    ``states`` holds ``n_steps + 1`` global ``(n_global, node_out)``
    arrays including frame 0 (``x0``). ``metrics`` carries the serving
    layer's :class:`~repro.serve.metrics.RequestMetrics` (or its dict
    form over the wire) when the engine records them, else ``None``.
    """

    request_id: int
    states: list
    metrics: object | None = None

    @property
    def n_steps(self) -> int:
        """Number of surrogate steps taken (``len(states) - 1``)."""
        return len(self.states) - 1

    @property
    def final(self) -> np.ndarray:
        """The last state of the trajectory."""
        return self.states[-1]


@dataclass
class TrainRequest:
    """A fine-tuning job against a registered (model, graph) pair.

    ``x`` / ``target`` are global node states: either one sample
    ``(n_global, F)`` or a batch ``(B, n_global, F)``; a batch is
    executed as ONE tiled forward/backward per iteration through the
    same block-diagonal replication the inference path uses (the tiling
    is gradient-capable — the autograd ops see the tiled graph like any
    other). The job trains a *copy* of the registered model (Adam,
    ``consistent_mse_loss``) and returns the updated parameters in the
    result; the registered asset is never mutated — re-register the
    returned ``state_dict`` to serve the fine-tuned weights.

    Thread safety: immutable after construction. Determinism: arrays
    canonicalize to ``float64`` here; a ``B == 1`` job on the same
    initial weights reproduces a direct
    :func:`repro.gnn.trainer.train_model` run bit for bit, on one rank
    or many (the consistency contract extends to training).
    """

    model: str
    graph: str
    x: np.ndarray
    target: np.ndarray
    iterations: int = 1
    lr: float = 1e-3
    halo_mode: str | None = None
    grad_reduction: str = "all_reduce"
    request_id: int = field(default_factory=lambda: next(_request_ids))
    submitted_at: float = field(default_factory=time.perf_counter)

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.grad_reduction not in ("all_reduce", "sum"):
            raise ValueError(
                f"grad_reduction must be 'all_reduce' or 'sum', "
                f"got {self.grad_reduction!r}"
            )
        if self.halo_mode is not None:
            self.halo_mode = HaloMode.parse(self.halo_mode).value
        self.x = self._canonical("x", self.x)
        self.target = self._canonical("target", self.target)
        if self.x.shape[:2] != self.target.shape[:2]:
            raise ValueError(
                f"x and target disagree on (batch, nodes): "
                f"{self.x.shape[:2]} != {self.target.shape[:2]}"
            )

    @staticmethod
    def _canonical(name: str, array: np.ndarray) -> np.ndarray:
        array = np.asarray(array, dtype=np.float64)
        if array.ndim == 2:
            array = array[None]
        if array.ndim != 3:
            raise ValueError(
                f"{name} must be (nodes, features) or (batch, nodes, features), "
                f"got {array.shape}"
            )
        return array

    @property
    def n_samples(self) -> int:
        """Batch size ``B`` of the job (samples tiled per forward)."""
        return self.x.shape[0]

    def resolved(self) -> "TrainRequest":
        """Fill the halo-mode default ``n-a2a`` (``self`` if set)."""
        if self.halo_mode is not None:
            return self
        return dataclasses.replace(self, halo_mode=HaloMode.NEIGHBOR_A2A.value)


@dataclass
class TrainResult:
    """What one :class:`TrainRequest` produced.

    ``losses`` is the per-iteration loss history; ``state_dict`` the
    fine-tuned parameters (rank replicas are bit-identical, so one copy
    represents them all); ``world_size`` / ``batch_size`` record how
    the job executed; ``train_s`` is wall time (nondeterministic —
    everything else is exact).

    Distinct from :class:`repro.gnn.trainer.TrainResult`, the raw
    per-rank record of one training *loop* — this class describes a
    submitted *job* (it carries the request identity and execution
    shape, not gradient norms). Import from the module that matches
    the API you are using; engines always return this one.
    """

    request_id: int
    losses: list
    state_dict: dict
    world_size: int
    batch_size: int
    train_s: float

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


# -- futures ------------------------------------------------------------------


class StreamFuture(ABC):
    """A streamed operation in flight: typed frames, then a result.

    What a rollout, an ensemble (and any later streamed request kind)
    share. The stream is consumed exactly once, through ONE shared
    iterator: ``frames()`` returns it (creating it on first call),
    ``result()`` drains whatever it has not yielded yet and builds the
    kind's result from everything collected — so ``result()`` after a
    full or partial ``frames()`` pass is valid on every engine and
    never replays or blocks on an already-drained stream.

    Thread safety: single-consumer — do not iterate ``frames()`` /
    ``result()`` from two threads at once; ``done`` may be polled from
    anywhere. A failure in the engine — including typed admission
    rejections and capability errors — is re-raised in the consumer.
    """

    def __init__(self, request):
        self.request = request
        #: RequestMetrics (or dict over the wire) once the request finished
        self.metrics: object | None = None
        self._collected: list = []
        self._iter: Iterator | None = None
        self._failure: BaseException | None = None

    @abstractmethod
    def _frames(self, timeout: float | None) -> Iterator:
        """Implementation hook: the raw one-shot frame generator.

        Must append what :meth:`_result` needs of every yielded frame
        to ``self._collected``.
        """

    @abstractmethod
    def _result(self):
        """Implementation hook: the kind's result over ``_collected``."""

    def _guarded(self, inner: Iterator) -> Iterator:
        """Remember a terminal stream failure so it cannot be lost.

        A generator dies with the exception it raised; without this, a
        consumer that caught the error and later called ``result()``
        would drain the (now empty) iterator and mistake a truncated
        trajectory for success.
        """
        try:
            yield from inner
        except BaseException as exc:
            self._failure = exc
            raise

    def frames(self, timeout: float | None = None) -> Iterator:
        """The frame stream.

        Returns the future's single shared iterator — repeated calls
        continue the same stream rather than restarting it. ``timeout``
        bounds each frame's arrival, not the whole stream, and is fixed
        by whichever call creates the iterator.
        """
        if self._iter is None:
            self._iter = self._guarded(self._frames(timeout))
        return self._iter

    def result(self, timeout: float | None = None):
        """Block until done; return the kind's complete result.

        Drains any frames not yet consumed through :meth:`frames`;
        frames already consumed are included from what was collected,
        so calling this after (or instead of) streaming always returns
        everything. A stream that failed stays failed: the terminal
        error is re-raised here on every call, never laundered into a
        short result.
        """
        for _ in self.frames(timeout=timeout):
            pass
        if self._failure is not None:
            raise self._failure
        return self._result()

    @property
    @abstractmethod
    def done(self) -> bool:
        """Whether the request finished (successfully or not)."""


class RolloutFuture(StreamFuture):
    """In-flight rollout: stream :class:`StepFrame`, or block for the
    :class:`RolloutResult`.

    Frames arrive in step order, frame 0 being ``x0`` itself
    (``n_steps + 1`` in all); ``_frames`` implementations append every
    yielded *state* to ``self._collected``.
    """

    def _result(self) -> RolloutResult:
        return RolloutResult(
            request_id=self.request.request_id,
            states=list(self._collected),
            metrics=self.metrics,
        )


class TrainFuture(ABC):
    """In-flight training job; ``result()`` blocks for the outcome."""

    def __init__(self, request: TrainRequest):
        self.request = request

    @abstractmethod
    def result(self, timeout: float | None = None) -> TrainResult:
        """Block until the job finishes; re-raises job failures."""

    @property
    @abstractmethod
    def done(self) -> bool:
        """Whether the job finished (successfully or not)."""


# -- the engine protocol ------------------------------------------------------


class Engine(ABC):
    """One front end for local, pooled, and networked execution.

    The contract every implementation honors:

    * **Typed requests.** :meth:`submit` takes a
      :class:`RolloutRequest`, an
      :class:`~repro.ensemble.api.EnsembleRequest` or a
      :class:`TrainRequest` and returns the matching future;
      :meth:`rollout` / :meth:`stream` / :meth:`train` are synchronous
      conveniences over it.
    * **Declared capabilities.** :meth:`capabilities` is the engine's
      fixed record (training, in-memory models); unsupported
      submissions raise
      :class:`CapabilityError` at the call site, never a transport
      error three layers down.
    * **Bitwise consistency.** The same :class:`RolloutRequest` yields
      bit-identical trajectories on every engine (asserted by the
      conformance suite) — choosing an engine is an operational
      decision, never a numerical one.
    * **Typed failures.** Admission shedding
      (:class:`~repro.serve.admission.QueueFull`,
      :class:`~repro.serve.admission.DeadlineExpired`), unknown assets,
      and incompatible shapes raise the same exception types on every
      engine that can produce them.

    Thread safety: engines may be shared across threads (each documents
    its own details); futures are single-consumer.
    """

    # -- lifecycle -----------------------------------------------------------

    @abstractmethod
    def capabilities(self) -> EngineCapabilities:
        """What this engine supports (stable for the engine's lifetime)."""

    @abstractmethod
    def close(self) -> None:
        """Release engine resources (idempotent)."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- asset registration --------------------------------------------------

    @abstractmethod
    def register_model(self, name: str, model: "MeshGNN") -> None:
        """Register an in-memory model (raises :class:`CapabilityError`
        when ``capabilities().in_memory_assets`` is false)."""

    @abstractmethod
    def register_checkpoint(
        self,
        name: str,
        path: "str | Path",
        expect_config: "GNNConfig | None" = None,
    ) -> None:
        """Register a checkpoint by path (engine-visible for remotes);
        it loads at first use."""

    @abstractmethod
    def register_graph(self, key: str, graphs: "Sequence[LocalGraph]") -> None:
        """Register an in-memory partitioned graph (a remote engine
        uploads it)."""

    @abstractmethod
    def register_graph_dir(self, key: str, directory: "str | Path") -> None:
        """Register a partitioned-graph directory by path."""

    @abstractmethod
    def model_names(self) -> list:
        """Registered model names, sorted."""

    @abstractmethod
    def graph_keys(self) -> list:
        """Registered graph keys, sorted."""

    # -- submission ----------------------------------------------------------

    @abstractmethod
    def _submit_rollout(self, request: RolloutRequest) -> RolloutFuture:
        """Implementation hook behind :meth:`submit` (request type checked)."""

    def _submit_train(self, request: TrainRequest) -> TrainFuture:
        """Implementation hook for engines with ``training`` capability."""
        raise CapabilityError(
            f"engine {self.capabilities().transport!r} does not support "
            f"training jobs"
        )

    @abstractmethod
    def _submit_ensemble(self, request: EnsembleRequest) -> EnsembleFuture:
        """Implementation hook behind :meth:`submit` (request type checked)."""

    def submit(
        self, request: RolloutRequest | EnsembleRequest | TrainRequest
    ) -> RolloutFuture | EnsembleFuture | TrainFuture:
        """Submit a typed request; returns the matching future.

        Raises :class:`CapabilityError` for a :class:`TrainRequest` on
        an engine without ``training`` (see :meth:`capabilities`), and
        :class:`TypeError` for objects that are not requests at all.
        """
        # lazy: ensemble.api imports this module at its top level
        from repro.ensemble.api import EnsembleRequest

        if isinstance(request, EnsembleRequest):
            return self._submit_ensemble(request)
        if isinstance(request, RolloutRequest):
            return self._submit_rollout(request)
        if isinstance(request, TrainRequest):
            caps = self.capabilities()
            if not caps.training:
                raise CapabilityError(
                    f"engine {caps.transport!r} does not support training "
                    f"jobs (capability 'training' is off); submit "
                    f"TrainRequest {request.request_id} to a local:// or "
                    f"pool:// engine"
                )
            return self._submit_train(request)
        raise TypeError(
            f"submit() takes a RolloutRequest, EnsembleRequest or "
            f"TrainRequest, got {type(request).__name__}"
        )

    # -- synchronous conveniences --------------------------------------------

    def rollout(
        self, request: RolloutRequest, timeout: float | None = None
    ) -> RolloutResult:
        """Submit and block for the full trajectory."""
        return self.submit(request).result(timeout=timeout)

    def stream(
        self, request: RolloutRequest, timeout: float | None = None
    ) -> Iterator[StepFrame]:
        """Submit and yield :class:`StepFrame` as they arrive."""
        yield from self.submit(request).frames(timeout=timeout)

    def train(
        self, request: TrainRequest, timeout: float | None = None
    ) -> TrainResult:
        """Submit a training job and block for its result."""
        future = self.submit(request)
        return future.result(timeout=timeout)

    def ensemble(self, request, timeout: float | None = None):
        """Submit an :class:`repro.ensemble.api.EnsembleRequest` and
        block for the full :class:`repro.ensemble.api.EnsembleResult`."""
        return self.submit(request).result(timeout=timeout)

    # -- introspection -------------------------------------------------------

    @abstractmethod
    def metrics_registry(self) -> MetricsRegistry:
        """The engine's metrics as a :class:`~repro.obs.registry.
        MetricsRegistry` the caller may relabel and merge — the one
        introspection source; stats, table and text are views of it."""

    def stats(self) -> ServeStats:
        """Aggregate engine statistics (a view of :meth:`metrics_registry`)."""
        from repro.serve.metrics import ServeStats

        return ServeStats.from_registry(self.metrics_registry())

    def stats_markdown(self) -> str:
        """The stats snapshot rendered as a markdown table."""
        from repro.serve.metrics import stats_markdown

        return stats_markdown(self.stats())

    def metrics_text(self) -> str:
        """Prometheus text exposition of :meth:`metrics_registry`."""
        return self.metrics_registry().prometheus_text()

    # -- observability -------------------------------------------------------

    def get_trace(self, trace_id: str) -> "list[Span]":
        """All spans this engine recorded for one trace, by start time.

        The base implementation returns ``[]`` (an engine with no
        tracing still satisfies the protocol); tracing engines return
        their buffered spans, and composite engines (cluster) merge
        their own spans with every reachable member's.
        """
        return []

