"""Autoregressive rollout: use the trained GNN as a surrogate time-stepper.

The paper's downstream purpose for these models is accelerated
simulation: a GNN trained to map the state at ``t`` to the state at
``t + dt`` is iterated to produce trajectories. Consistency matters
doubly here — any partition-dependence would compound exponentially
over rollout steps. ``tests/gnn/test_rollout.py`` asserts that a
distributed rollout tracks the single-rank rollout step for step.
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm import HaloMode
from repro.comm.backend import Communicator
from repro.gnn.architecture import MeshGNN
from repro.graph.distributed import LocalGraph
from repro.graph.features import EDGE_FEATURES_GEOMETRIC
from repro.obs import profile as _profile
from repro.tensor import Tensor, fast_math, inference_mode, no_grad
from repro.tensor.fused import fused_mlp


def rollout(
    model: MeshGNN,
    graph: LocalGraph,
    x0: np.ndarray,
    n_steps: int,
    comm: Communicator | None = None,
    halo_mode: HaloMode | str = HaloMode.NEIGHBOR_A2A,
    residual: bool = False,
    workspace: bool = True,
) -> list[np.ndarray]:
    """Iterate the model ``n_steps`` times from ``x0``.

    Parameters
    ----------
    residual:
        If true the model output is interpreted as an increment
        (``x_{n+1} = x_n + G(x_n)``) rather than the next state.
    workspace:
        Run the inference path (:func:`workspace_steps`, the loop the
        serve executor shares): the fused raw-array kernels inside an
        inference workspace arena, so per-layer intermediates, edge
        features and halo send/recv buffers are allocated once and
        reused every step, and geometric edge features (which do not
        depend on the state) are encoded once. Bitwise identical to
        ``workspace=False``, which runs the *reference*: the ``Tensor``
        op chain exactly as training runs it, allocating per op (under
        :func:`repro.tensor.naive_aggregation` additionally with
        ``np.add.at`` scatters — the bottom rung every bitwise test and
        ``python -m repro bench`` compare against).

    Returns
    -------
    list of ndarray
        ``n_steps + 1`` states including ``x0``. Edge features are
        recomputed from the *current* state at every step when the
        model uses the "full" edge-feature variant.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    states = [np.array(x0, dtype=np.float64, copy=True)]
    x = states[0]
    if workspace:
        workspace_steps(
            model, graph, x, n_steps, comm, halo_mode, residual,
            lambda step, state: states.append(np.array(state, copy=True)),
        )
        return states
    with no_grad():
        for _ in range(n_steps):
            edge_attr = graph.edge_attr(node_features=x, kind=model.config.edge_features)
            y = model(Tensor(x), edge_attr, graph, comm, halo_mode).data
            x = x + y if residual else y
            states.append(np.array(x, copy=True))
    return states


def workspace_steps(
    model: MeshGNN,
    graph: LocalGraph,
    x: np.ndarray,
    n_steps: int,
    comm: Communicator | None,
    halo_mode: HaloMode | str,
    residual: bool,
    on_state,
    arena=None,
) -> None:
    """The inference path's stepping loop (direct rollout AND serve executor).

    Runs ``n_steps`` model applications from ``x`` inside
    :func:`repro.tensor.inference_mode` with the ``fast_math`` gate
    set — raw arrays through the fused kernels, ``Tensor``s only at
    the model-call boundary — calling
    ``on_state(step, state)`` after each step (``step`` is 1-based;
    ``state`` may reference reused pool memory — consumers must copy,
    which both callers do).

    ``arena`` optionally passes a persistent
    :class:`~repro.tensor.workspace.InferenceArena` (the serve workers
    keep one warmed arena each across batches); ``None`` runs in a
    fresh single-use arena. A caller-owned arena must not be used by
    two concurrent loops.

    The loop owns three subtle invariants, kept in ONE place on
    purpose — a served batch must stay bitwise identical to a direct
    rollout:

    * state-independent (geometric) edge features are computed once per
      *graph* (cached on the instance), so repeated batches over a
      cached tiled replica never recompute them; state-dependent ones
      are recycled as soon as the encoder consumed them;
    * the previous state's pool buffer is recycled only after the model
      call that consumed it returns — including the final state, whose
      buffer is recycled after the last ``on_state`` (consumers copy);
    * residual updates add into one persistent buffer (``np.add`` into
      self is elementwise-safe), never into the caller's ``x``.
    """
    kind = model.config.edge_features
    static_attr = (
        graph.geometric_edge_attr() if kind == EDGE_FEATURES_GEOMETRIC else None
    )
    # low-precision tier: features are built in float64 (positions are);
    # cast once so the model never silently promotes back to f64
    if static_attr is not None and static_attr.dtype != x.dtype:
        static_attr = static_attr.astype(x.dtype)
    # opt-in hot-loop profiling: one global read per call; with no
    # profiler installed each step pays exactly one `is None` branch
    prof = _profile.current_profiler()
    xbuf: np.ndarray | None = None
    borrowed: np.ndarray | None = None  # pool buffer x references
    with inference_mode(arena) as arena, fast_math():
        encoded_edge: np.ndarray | None = None
        for step in range(1, n_steps + 1):
            arena.reset()
            # two clock reads per step are cheaper than a second copy
            # of this body: tracing-off still pays one `is None` branch
            t0 = time.perf_counter()
            edge_attr = (
                static_attr
                if static_attr is not None
                else graph.edge_attr(node_features=x, kind=kind)
            )
            if edge_attr.dtype != x.dtype:
                cast = edge_attr.astype(x.dtype)
                arena.recycle(edge_attr)
                edge_attr = cast
            t1 = time.perf_counter()
            if static_attr is not None and encoded_edge is None:
                # geometric edge features do not depend on the state, so
                # their encoding is identical every step — compute it once
                # (bitwise-unchanged; the reference path recomputes it),
                # inside the first step's forward span: the kernels it
                # runs are profiled, so the span they sum against holds it
                encoded_edge = fused_mlp(static_attr, model.edge_encoder.kernel())
            y = model(
                Tensor(x), edge_attr, graph, comm, halo_mode,
                encoded_edge_attr=encoded_edge,
            ).data
            if prof is not None:
                t2 = time.perf_counter()
                prof.add("rollout.edge_features", t1 - t0)
                prof.add("rollout.model_forward", t2 - t1)
                prof.add("rollout.step", t2 - t0)
            if static_attr is None:
                arena.recycle(edge_attr)  # dead once encoded
            if borrowed is not None:
                arena.recycle(borrowed)  # previous state, now consumed
                borrowed = None
            if residual:
                if xbuf is None:
                    xbuf = arena.out(x.shape, x.dtype)
                np.add(x, y, out=xbuf)
                arena.recycle(y)  # increment consumed
                x = xbuf
            else:
                x = borrowed = y
            on_state(step, x)
        # the final state was copied by on_state; its pool buffer would
        # otherwise be stranded until the allocator frees it
        if borrowed is not None:
            arena.recycle(borrowed)
        if xbuf is not None:
            arena.recycle(xbuf)
        if encoded_edge is not None:
            arena.recycle(encoded_edge)  # held across every step


def rollout_error(
    states: list[np.ndarray], reference: list[np.ndarray]
) -> np.ndarray:
    """Per-step RMS error between two trajectories of equal length."""
    if len(states) != len(reference):
        raise ValueError("trajectories must have equal length")
    return np.array(
        [float(np.sqrt(np.mean((a - b) ** 2))) for a, b in zip(states, reference)]
    )
