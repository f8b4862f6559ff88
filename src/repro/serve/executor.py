"""Batch execution engine: tiled rollouts and training jobs over the
comm backends.

One batch = requests sharing a
``(model, graph, halo_mode, residual, precision)`` key
(:class:`~repro.runtime.api.BatchKey`). The engine gathers each
request's global initial state into the rows of the asset's stitched
graph (the ``R`` rank graphs as one block-diagonal graph whose halo
exchange is an in-process row gather,
:func:`repro.serve.tiling.stitch_rank_graphs`), fetches its ``B``-fold
replica from the asset's tile cache
(:meth:`repro.serve.cache.GraphAsset.tiled` — stitched once per asset,
tiled once per batch size, re-used with its composed aggregation plans
every subsequent batch), and steps all ``B`` trajectories with a single
model forward per step on the calling worker's thread, over
:class:`~repro.comm.single.SingleProcessComm`. Frames stream to clients
as each step completes. No batch starts a thread.

The arithmetic is exactly that of :func:`repro.gnn.rollout.rollout` —
edge features recomputed from the current state each step, residual or
direct update, every rank's rows accumulated in their rank world's
order — so a served trajectory is bitwise identical to a hand-wired
rollout.

:func:`execute_train_job` is the gradient-side sibling: a
:class:`~repro.runtime.api.TrainRequest` fine-tunes a *copy* of a
registered model on per-rank tiled replicas, SPMD over
:class:`~repro.comm.threaded.ThreadWorld` (the tiling layer is
gradient-capable — the autograd ops treat a replica like any graph),
with per-rank replicas kept bit-identical by DDP gradient sync. It
keeps the rank world: DDP averages per-rank gradients, which a stitched
graph would sum in a different order.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.comm.modes import HaloMode
from repro.comm.single import SingleProcessComm
from repro.comm.threaded import ThreadWorld
from repro.gnn.architecture import MeshGNN, cast_replica
from repro.gnn.rollout import workspace_steps
from repro.gnn.trainer import train_model
from repro.runtime.api import RolloutRequest, TrainRequest, TrainResult
from repro.serve.cache import GraphAsset
from repro.serve.registry import IncompatibleModel, ModelRegistry
from repro.serve.tiling import stack_states
from repro.tensor.workspace import InferenceArena

#: frame dispatcher: ``(request_index, step, global_state)``
FrameDispatch = Callable[[int, int, np.ndarray], None]

# float32 serving replicas, one per registered float64 model. Keyed by
# object identity (re-registering a model installs a new object, which
# simply misses here and casts fresh); weak keys let an unregistered
# model's replica die with it.
_f32_lock = threading.Lock()
_f32_replicas: "weakref.WeakKeyDictionary[MeshGNN, MeshGNN]" = (
    weakref.WeakKeyDictionary()
)


def float32_replica(model: MeshGNN) -> MeshGNN:
    """The cached float32 cast of ``model`` (built on first use).

    The float64 model stays canonical; the replica is a fresh
    :class:`MeshGNN` whose parameters are cast copies
    (:func:`repro.gnn.architecture.cast_replica`), so low-precision
    serving never mutates — or silently re-types — registered weights.
    """
    with _f32_lock:
        replica = _f32_replicas.get(model)
        if replica is None:
            replica = cast_replica(model, np.float32)
            _f32_replicas[model] = replica
        return replica


class WorkerArenas(InferenceArena):
    """The persistent inference arena of one serve worker.

    Re-warming a fresh :class:`~repro.tensor.workspace.InferenceArena`
    per batch made every batch re-allocate its whole working set; a
    worker that keeps one warmed arena serves sustained load
    allocation-free — after the first couple of batches on a key, every
    buffer the stepping loop needs already sits in the pool
    (``tests/gnn/test_fast_rollout.py`` asserts this). One arena is
    enough: every batch, whatever its world size, steps on the worker's
    own thread.

    Thread safety: one worker executes one batch at a time, so the arena
    is never used by two loops at once. Do not share one
    ``WorkerArenas`` across concurrent workers. Determinism: arenas only
    recycle buffers; they never change the computed bits.
    """

    #: bound on remembered keys; far above any realistic tenant mix,
    #: it only guards against a pathological key churn growing the set
    _MAX_KEYS = 128

    def __init__(self) -> None:
        super().__init__()
        self._keys: dict = {}  # BatchKey -> None, insertion-ordered

    def note_key(self, key) -> bool:
        """Record that this worker serves ``key``; ``True`` if warm.

        "Warm" means the worker has executed this
        :class:`~repro.runtime.api.BatchKey` before, so its arena holds
        the key's buffers from a previous batch (tiled and float32
        replicas are shared, not per worker) — the quantity the
        scheduler's sticky affinity tries to maximize (surfaced as
        ``warm_key_batches``).
        """
        if key in self._keys:
            return True
        if len(self._keys) >= self._MAX_KEYS:
            self._keys.pop(next(iter(self._keys)))
        self._keys[key] = None
        return False


@dataclass(frozen=True)
class BatchExecution:
    """What one batch cost (per-batch metrics input).

    Immutable record produced once per :func:`execute_batch`; safe to
    share across threads. ``exec_s`` is wall time (nondeterministic).
    ``tile_hits`` / ``tile_misses`` count the batch's one lookup in the
    asset's tiled-graph cache (a miss means the replica was built now).
    """

    batch_size: int
    world_size: int
    n_steps: int
    exec_s: float
    tile_hits: int = 0
    tile_misses: int = 0
    #: wall seconds inside ``asset.tiled`` — the stitch / tile-compile
    #: cost on a miss, a cache-lookup tick on a hit (recorded as the
    #: per-batch ``tile`` span by the service)
    tile_s: float = 0.0
    #: pool-miss allocations this batch charged to the worker's
    #: persistent arena (0 when the batch ran without ``arenas``)
    arena_reallocations: int = 0
    #: bytes parked in the worker's arena after this batch (0 without
    #: ``arenas``) — the resident cost of allocation-free serving
    arena_nbytes: int = 0
    #: whether the batch ran on the float32 inference tier
    f32: bool = False
    #: whether the executing worker had served this batch's key before
    #: (its arena was already warm — the payoff the scheduler's sticky
    #: affinity optimizes for)
    warm_key: bool = False


def _validate_batch(
    model: MeshGNN, asset: GraphAsset, requests: Sequence[RolloutRequest]
) -> None:
    ModelRegistry.validate_rollout(model)
    n_global = asset.n_global
    node_in = model.config.node_in
    for req in requests:
        if req.x0.shape != (n_global, node_in):
            raise IncompatibleModel(
                f"request {req.request_id}: x0 has shape {req.x0.shape}, "
                f"graph/model expect {(n_global, node_in)}"
            )


def execute_batch(
    model: MeshGNN,
    asset: GraphAsset,
    requests: Sequence[RolloutRequest],
    dispatch: FrameDispatch,
    arenas: WorkerArenas | None = None,
) -> BatchExecution:
    """Run one coalesced batch, streaming frames through ``dispatch``.

    Frame 0 (the request's own ``x0``) is dispatched immediately; frames
    ``1..n_steps`` follow as each batched step completes. Requests with
    fewer steps than the batch maximum simply stop receiving frames
    early (their rows still ride along in the tiled state — the cost of
    a straggler-free batch shape).

    The batch steps on the calling thread, whatever the asset's world
    size: the asset's ``R`` rank graphs are stitched into one graph
    whose halo exchange is an in-process row gather
    (:func:`repro.serve.tiling.stitch_rank_graphs`), tiled ``B``-fold,
    and stepped on :class:`~repro.comm.single.SingleProcessComm`. Every
    exchanging halo mode moves the same rows, so they all run the
    ``n-a2a`` engine; ``none`` stays ``none``. Each global node's frame
    row is read from the highest rank holding it
    (:attr:`~repro.serve.cache.GraphAsset.frame_rows`). The price: an
    idle server no longer spreads one large multi-rank batch over
    threads; a loaded one stops paying ``R`` rank threads and a
    rendezvous per step (``docs/architecture.md``, "One thread per
    batch").

    ``arenas`` optionally supplies the calling worker's persistent
    :class:`WorkerArenas`; the batch then steps inside its warmed arena
    instead of a fresh one, making sustained same-shape serving
    allocation-free across batches (the batch's pool misses are reported
    as ``arena_reallocations``).

    The stepping loop is the inference path (fused raw-array kernels,
    :mod:`repro.tensor.fused`) — bitwise identical to the reference op
    chain, so the consistency contract is untouched. A batch whose
    requests carry ``precision="float32"``
    (same :class:`~repro.runtime.api.BatchKey`, so never mixed with
    float64 requests) steps a cached float32 replica of the model on a
    float32 cast of the stacked states; its frames — including frame 0
    — are dispatched in float32.

    Thread safety: one call owns its batch and starts no thread — the
    function may run on many worker threads concurrently (distinct
    batches), but a single batch must not be executed twice.
    ``dispatch`` is invoked from the calling thread only. The model and
    asset are only read; sharing them across concurrent batches is
    safe.

    Determinism: the arithmetic is exactly
    :func:`repro.gnn.rollout.rollout` of every rank of a
    :class:`~repro.comm.threaded.ThreadWorld` on its own graph —
    stitching and tiling preserve every row's accumulation order — so
    every dispatched frame is bitwise identical to a hand-wired rollout
    of that request; batch composition, worker count, and timing never
    change the bits.
    """
    if not requests:
        raise ValueError("empty batch")
    _validate_batch(model, asset, requests)
    batch = len(requests)
    halo_mode = HaloMode.parse(
        requests[0].halo_mode
        if requests[0].halo_mode is not None
        else HaloMode.NEIGHBOR_A2A
    )
    if halo_mode is not HaloMode.NONE:
        halo_mode = HaloMode.NEIGHBOR_A2A  # the one in-process engine
    residual = requests[0].residual
    f32 = requests[0].precision == "float32"
    run_model = float32_replica(model) if f32 else model
    max_steps = max(r.n_steps for r in requests)
    reallocs_before = arenas.reallocations if arenas is not None else 0
    warm_key = arenas.note_key(requests[0].key) if arenas is not None else False

    for i, req in enumerate(requests):
        dispatch(i, 0, req.x0.astype(np.float32) if f32 else req.x0)

    started = time.perf_counter()
    # cached block-diagonal replica of the stitched world: stitched once
    # per asset, tiled (with composed plans) once per batch size
    tiled, hit = asset.tiled(batch)
    tile_s = time.perf_counter() - started
    rows, frame_rows = asset.stitched_rows, asset.frame_rows
    n = len(rows)
    x = stack_states([req.x0[rows] for req in requests])
    if f32:
        # one cast from the float64-canonical bits, at execution — the
        # whole trajectory then stays float32
        x = x.astype(np.float32)

    def dispatch_step(step: int, state: np.ndarray) -> None:
        # `state` is pool memory reused next step: each frame is a
        # fresh gather of the request's copy, in global order
        for i, req in enumerate(requests):
            if step <= req.n_steps:
                dispatch(i, step, state[i * n : (i + 1) * n][frame_rows])

    # the shared fast stepping loop (repro.gnn.rollout), in the worker's
    # persistent warmed arena (or a private single-batch one): buffers
    # allocated on step 1 are reused by every later step — and, with a
    # persistent arena, by every later batch
    workspace_steps(
        run_model, tiled, x, max_steps, SingleProcessComm(), halo_mode,
        residual, dispatch_step, arena=arenas,
    )
    return BatchExecution(
        batch_size=batch,
        world_size=asset.size,
        n_steps=max_steps,
        exec_s=time.perf_counter() - started,
        tile_hits=int(hit),
        tile_misses=int(not hit),
        tile_s=tile_s,
        arena_reallocations=(
            arenas.reallocations - reallocs_before if arenas is not None else 0
        ),
        arena_nbytes=arenas.nbytes if arenas is not None else 0,
        f32=f32,
        warm_key=warm_key,
    )


# -- training jobs ------------------------------------------------------------


def execute_train_job(
    model: MeshGNN,
    asset: GraphAsset,
    request: TrainRequest,
    timeout: float = 120.0,
) -> TrainResult:
    """Run one fine-tuning job against a registered (model, graph) pair.

    The request's ``B`` samples execute as ONE tiled forward/backward
    per iteration: each rank fetches its ``B``-fold replica from the
    asset's tile cache, stacks the samples' local states block-wise,
    and trains a fresh *copy* of ``model`` (same config, same starting
    weights) with :func:`repro.gnn.trainer.train_model` — Adam over the
    consistent MSE loss, gradients DDP-synced so every rank's replica
    stays bit-identical. The registered ``model`` itself is never
    touched; the updated parameters come back in the result's
    ``state_dict``.

    Thread safety: one call owns its job; the model and asset are only
    read, so concurrent jobs (and concurrent inference batches) may
    share them. Determinism: a ``B == 1`` job reproduces a direct
    ``train_model`` run on the un-tiled graph bit for bit, at any world
    size — the consistency contract extends through training
    (``tests/runtime/test_engine_conformance.py``).
    """
    halo_mode = HaloMode.parse(
        request.halo_mode
        if request.halo_mode is not None
        else HaloMode.NEIGHBOR_A2A
    )
    n_global = asset.n_global
    cfg = model.config
    if request.x.shape[1] != n_global or request.x.shape[2] != cfg.node_in:
        raise IncompatibleModel(
            f"train request {request.request_id}: x has shape "
            f"{request.x.shape[1:]}, graph/model expect {(n_global, cfg.node_in)}"
        )
    if request.target.shape[2] != cfg.node_out:
        raise IncompatibleModel(
            f"train request {request.request_id}: target has "
            f"{request.target.shape[2]} features, model emits {cfg.node_out}"
        )
    batch = request.n_samples
    initial_state = model.state_dict()  # copies; shared read-only by ranks
    started = time.perf_counter()

    def rank_program(comm):
        tiled, _ = asset.tiled(batch, comm.rank)
        g = asset.graphs[comm.rank]
        x = stack_states([request.x[k][g.global_ids] for k in range(batch)])
        target = stack_states(
            [request.target[k][g.global_ids] for k in range(batch)]
        )
        replica = MeshGNN(cfg)
        replica.load_state_dict(initial_state)
        return train_model(
            replica,
            tiled,
            x,
            target,
            comm,
            halo_mode,
            iterations=request.iterations,
            lr=request.lr,
            grad_reduction=request.grad_reduction,
        )

    if asset.size == 1:
        results = [rank_program(SingleProcessComm())]
    else:
        results = ThreadWorld(asset.size, timeout=timeout).run(rank_program)
    # replicas are bit-identical after DDP-synced training; rank 0
    # stands for them all
    outcome = results[0]
    return TrainResult(
        request_id=request.request_id,
        losses=list(outcome.losses),
        state_dict=outcome.state_dict,
        world_size=asset.size,
        batch_size=batch,
        train_s=time.perf_counter() - started,
    )
