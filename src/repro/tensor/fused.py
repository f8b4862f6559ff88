"""The inference forward: fused raw-array kernels behind ``fast_math``.

There are two implementations of the forward pass and only two. The
:class:`~repro.tensor.Tensor` op chain (:mod:`repro.tensor.ops`) is what
training runs and what every bitwise test compares against — the
*reference*. This module is the other one: kernels that take raw
ndarrays and return raw ndarrays, draw every buffer from the active
inference arena (:mod:`repro.tensor.workspace`) and hand temporaries
back the moment they die. The whole no-grad model forward (encoders,
processor, halo sync, decoder) is built from them; a steady-state step
constructs ``Tensor``s only at the model-call boundary and calls no
function of ``ops``.

* :func:`fused_edge_mlp` writes the ``[x_src, x_dst, e]`` gathers
  straight into one C-contiguous concat buffer and runs **one GEMM per
  layer over all (presorted) edges**; because the mesh builder emits
  receiver-major edge order, the subsequent aggregation is the planned
  identity-permutation scatter (:class:`~repro.tensor.aggregation.
  AggregationPlan` with ``order=None``) — no re-sort, no per-edge
  dispatch.
* :func:`fast_elu` computes the expensive ``exp`` only over the
  *compacted* non-positive entries. ``np.exp`` is elementwise — the
  bits of ``exp(v)`` do not depend on where ``v`` sits in the array —
  so the result is bit-for-bit the full-array computation the
  reference op performs (property-tested, including ``-0.0``).
* :func:`fused_mlp` / :func:`fused_layer_norm` replay exactly the
  numpy call sequences of the reference ops, with the intermediates in
  arena buffers.

Bitwise contract
----------------
In every dtype the fused path produces **bit-identical** results to the
reference op chain (``gather_rows``/``concatenate``/``linear``/``elu``/
``layer_norm``/``scatter_add``): every floating-point operation either
is the same numpy call on the same values in the same layout, or is an
elementwise kernel applied to a compacted subset (position-independent
per element). ``tests/properties/test_fused_kernel.py`` asserts this
across adversarial graphs; the engine-conformance suite asserts it
end-to-end on every engine.

The gate
--------
``fast_math`` is thread-local (each rank thread of a ``ThreadWorld``
runs its own stepping loop) and **defaults to off**: only inference
entry points enable it (:func:`repro.gnn.rollout.workspace_steps`,
which is ``rollout()``'s default and the serve executor's loop).
:func:`fused_forward_enabled` is the one fused-vs-reference decision,
evaluated once per model (or directly-called layer) forward; it
additionally requires ``not is_grad_enabled()`` — a training step can
never silently route through the fused path (gradcheck-asserted) — and
compiled plans to scatter into. When it is false the call *is* the
reference chain, not a third variant.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np

from repro.obs import profile as _profile
from repro.tensor.aggregation import aggregation_plans_enabled
from repro.tensor.tensor import is_grad_enabled
from repro.tensor.workspace import arena_out, arena_recycle

_state = threading.local()


def fast_math_enabled() -> bool:
    """Whether the fused inference kernels are active on this thread."""
    return getattr(_state, "enabled", False)


@contextlib.contextmanager
def fast_math(enabled: bool = True):
    """Scope the thread-local fast-math switch (save/restore)."""
    prev = fast_math_enabled()
    _state.enabled = bool(enabled)
    try:
        yield
    finally:
        _state.enabled = prev


def fused_forward_enabled(plans) -> bool:
    """Whether a forward over a graph with ``plans`` takes the fused path.

    The single fused-vs-reference predicate: the switch is on, autograd
    is not recording, and the graph has compiled plans that are not
    disabled by a :func:`~repro.tensor.naive_aggregation` scope.
    """
    return (
        fast_math_enabled()
        and not is_grad_enabled()
        and plans is not None
        and aggregation_plans_enabled()
    )


def _buf(shape, dtype) -> np.ndarray:
    """An output buffer: pooled when an arena is active, fresh otherwise."""
    out = arena_out(shape, dtype)
    if out is None:
        out = np.empty(shape, dtype=dtype)
    return out


class MLPKernel:
    """Raw-array view of one MLP's parameters for the fused kernels.

    Deliberately below the ``nn`` layer: the tensor package must not
    import modules, so the bridge (``repro.nn.MLP.kernel()``) lives on
    the module side and hands over plain ndarrays. Built per call —
    referencing the live parameter arrays keeps a low-precision
    replica's re-assigned ``p.data`` visible without a cache.
    """

    __slots__ = ("weights", "biases", "gamma", "beta", "eps")

    def __init__(self, weights, biases, gamma=None, beta=None, eps: float = 1e-5):
        self.weights = tuple(weights)
        self.biases = tuple(biases)
        self.gamma = gamma
        self.beta = beta
        self.eps = eps


def fast_elu(a: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """ELU with ``exp`` restricted to the compacted non-positive entries.

    Bitwise-identical to the reference ``repro.tensor.ops.elu``: for
    ``a > 0`` the input is copied through; for the complement the chain
    ``alpha * exp(a) - alpha`` is evaluated — ``exp`` is elementwise,
    so compaction does not change any result bit (``min(a, 0)`` is the
    identity on this subset, including ``-0.0``, and ``exp`` propagates
    NaN the same either way).
    """
    out = _buf(a.shape, a.dtype)
    np.copyto(out, a)
    neg = np.flatnonzero(~(a.reshape(-1) > 0))
    if neg.size:
        vals = a.reshape(-1)[neg]
        np.exp(vals, out=vals)
        np.multiply(vals, alpha, out=vals)
        np.subtract(vals, alpha, out=vals)
        out.reshape(-1)[neg] = vals
    return out


def fused_layer_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """LayerNorm over the last axis — the reference op's exact sequence."""
    buf = _buf(x.shape, x.dtype)
    mu = x.mean(axis=-1, keepdims=True)
    xc = np.subtract(x, mu, out=_buf(x.shape, x.dtype))
    sq = np.multiply(xc, xc, out=buf)
    var = np.mean(sq, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv_std, out=xc)
    out = np.multiply(xhat, gamma, out=buf)
    out += beta
    arena_recycle(xc)
    return out


def fused_mlp(h: np.ndarray, kernel: MLPKernel, recycle_input: bool = False) -> np.ndarray:
    """``Linear -> ELU -> ... -> Linear [-> LayerNorm]`` on raw rows.

    One GEMM per layer over every row at once. Bitwise-identical to the
    ``repro.nn.MLP`` forward under ``no_grad`` (same ``np.matmul`` on
    the same contiguous operand, same bias add, reference-exact ELU and
    LayerNorm). ``recycle_input=True`` returns ``h`` to the arena once
    the first GEMM consumed it.
    """
    prof = _profile.current_profiler()
    n = len(kernel.weights)
    cur = h
    for i, (weight, bias) in enumerate(zip(kernel.weights, kernel.biases)):
        out = _buf((cur.shape[0], weight.shape[0]), np.result_type(cur, weight))
        if prof is None:
            np.matmul(cur, weight.T, out=out)
        else:
            t0 = time.perf_counter()
            np.matmul(cur, weight.T, out=out)
            prof.add("fused_gemm", time.perf_counter() - t0)
        if bias is not None:
            out += bias
        if cur is not h or recycle_input:
            arena_recycle(cur)
        cur = out
        if i < n - 1:
            act = fast_elu(cur)
            arena_recycle(cur)
            cur = act
    if kernel.gamma is not None:
        normed = fused_layer_norm(cur, kernel.gamma, kernel.beta, kernel.eps)
        arena_recycle(cur)
        cur = normed
    return cur


def fused_edge_mlp(
    x: np.ndarray,
    e: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    kernel: MLPKernel,
) -> np.ndarray:
    """Eq. 4a fused: ``e + EdgeMLP([x_src, x_dst, e])`` over all edges.

    The sender/receiver gathers land directly in the concat buffer the
    first GEMM reads — no staging tensors, no separate concatenate
    pass. Edge order is whatever the graph carries (receiver-major from
    the mesh builder), so the caller's follow-up aggregation runs the
    planned identity-permutation scatter. ``src``/``dst`` must be
    in-range (graph invariant; plans validate at compile time).
    """
    n_edges, width = e.shape
    hx = x.shape[1]
    cat = _buf((n_edges, 2 * hx + width), np.result_type(x, e))
    cat[:, :hx] = x[src]
    cat[:, hx : 2 * hx] = x[dst]
    cat[:, 2 * hx :] = e
    h = fused_mlp(cat, kernel, recycle_input=True)
    out = _buf(np.broadcast_shapes(e.shape, h.shape), np.result_type(e, h))
    np.add(e, h, out=out)
    arena_recycle(h)
    return out


def fused_aggregate(e, inv_degree, plan) -> np.ndarray:
    """Eq. 4b fused: degree-scale then run the planned scatter.

    ``plan`` is the graph's receiver (``scatter_dst``) aggregation plan
    — presorted edges make this the identity-permutation contiguous
    path. ``inv_degree=None`` skips the scaling (the ablation switch).
    """
    if inv_degree is None:
        return plan.scatter_add(e)
    prod = _buf(
        np.broadcast_shapes(e.shape, inv_degree.shape),
        np.result_type(e, inv_degree),
    )
    np.multiply(e, inv_degree, out=prod)
    out = plan.scatter_add(prod)
    arena_recycle(prod)
    return out


def fused_node_mlp(x: np.ndarray, a: np.ndarray, kernel: MLPKernel) -> np.ndarray:
    """Eq. 4e fused: ``x + NodeMLP([a, x])`` with an in-buffer concat."""
    n_nodes = x.shape[0]
    ha = a.shape[1]
    cat = _buf((n_nodes, ha + x.shape[1]), np.result_type(a, x))
    cat[:, :ha] = a
    cat[:, ha:] = x
    h = fused_mlp(cat, kernel, recycle_input=True)
    out = _buf(np.broadcast_shapes(x.shape, h.shape), np.result_type(x, h))
    np.add(x, h, out=out)
    arena_recycle(h)
    return out
