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

* :func:`fused_edge_mlp` moves the ``[x_src, x_dst, e]`` gathers
  through one pooled row buffer into one C-contiguous concat buffer and
  runs **one GEMM per layer over all (presorted) edges**; because the
  mesh builder emits receiver-major edge order, the subsequent
  aggregation is the planned identity-permutation scatter
  (:class:`~repro.tensor.aggregation.AggregationPlan` with
  ``order=None``) — no re-sort, no per-edge dispatch.
* The ELU (:func:`fast_elu`, and in place on each hidden GEMM output
  inside :func:`fused_mlp`) is five full-array passes,
  ``max(h, 0) + (alpha * exp(min(h, 0)) - alpha)``: numpy's ``exp`` is
  SIMD, so evaluating it everywhere costs less than compacting the
  non-positive entries would, and the sum reproduces the reference's
  ``np.where`` select exactly (one operand is always a zero).
* :func:`fused_mlp` / :func:`fused_layer_norm` replay exactly the
  numpy call sequences of the reference ops, with the intermediates in
  arena buffers.
* :func:`fused_aggregate` is Eq. 4b; a graph whose ``d_ij`` are all 1
  (no replicated edge — every un-partitioned graph) is passed
  ``inv_degree=None`` and skips the multiply by ``1.0``.

Bitwise contract
----------------
In every dtype the fused path produces **bit-identical** results to the
reference op chain (``gather_rows``/``concatenate``/``linear``/``elu``/
``layer_norm``/``scatter_add``): every floating-point operation either
is the same numpy call on the same values in the same layout, or is
an identity on the bits and skipped (``e * 1.0``), or selects by
adding a zero (``v + 0.0``, ``0 + t``) where the reference selects
with ``np.where``. The contract is over
non-NaN values plus "NaN wherever the reference has NaN": a NaN's sign
and payload are not pinned (a float32 ``-nan`` leaves the ELU chain
with the opposite sign bit from the reference's).
``tests/properties/test_fused_kernel.py`` asserts this across
adversarial graphs and special values; the engine-conformance suite
asserts it end-to-end on every engine.

Profiling
---------
With a :mod:`repro.obs.profile` profiler installed every block of the
forward is one named lap (``fused.gather_concat``, ``fused_gemm``,
``fused.bias``, ``fused.elu``, ``fused.layer_norm``,
``fused.residual``, ``fused.degree_scale``; the layer adds
``halo.exchange`` / ``halo.sync``, the plan ``plan.scatter_add``).
Laps are contiguous and never nested, so their sum is at most — and on
the benchmark shape at least 0.90 of — ``rollout.model_forward``. With
no profiler each site is one ``is None`` branch.

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
from repro.tensor.workspace import arena_out, arena_recycle, pooled_take

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


def _elu_inplace(h: np.ndarray, alpha: float = 1.0) -> None:
    """ELU over ``h`` in place: ``max(h, 0) + (alpha * exp(min(h, 0)) - alpha)``.

    Five full-array passes and one temporary. Bitwise the reference's
    ``np.where(h > 0, h, alpha * exp(min(h, 0)) - alpha)``: for
    ``h > 0`` the second term is ``alpha * exp(0) - alpha``, exactly
    ``+0.0``, and ``h + 0.0 == h``; otherwise the first term is a zero
    and ``0 + t == t``, with ``t`` the very expression the reference
    selects (``exp(±0.0) - 1`` is ``+0.0`` either way). Python-float
    scalars keep a float32 ``h`` float32.
    """
    t = np.minimum(h, 0.0, out=_buf(h.shape, h.dtype))
    np.maximum(h, 0.0, out=h)
    np.exp(t, out=t)
    if alpha != 1.0:
        np.multiply(t, alpha, out=t)
    np.subtract(t, alpha, out=t)
    h += t
    arena_recycle(t)


def fast_elu(a: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Non-destructive ELU: :func:`_elu_inplace` on a pooled copy of ``a``.

    Bitwise-identical to the reference ``repro.tensor.ops.elu``.
    """
    out = _buf(a.shape, a.dtype)
    np.copyto(out, a)
    _elu_inplace(out, alpha)
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
    LayerNorm). The ELU runs in place on the GEMM output — a buffer
    drawn here, never the caller's ``h``. ``recycle_input=True`` returns
    ``h`` to the arena once the first GEMM consumed it.
    """
    prof = _profile.current_profiler()
    t0 = time.perf_counter() if prof is not None else 0.0
    n = len(kernel.weights)
    cur = h
    for i, (weight, bias) in enumerate(zip(kernel.weights, kernel.biases)):
        out = _buf((cur.shape[0], weight.shape[0]), np.result_type(cur, weight))
        np.matmul(cur, weight.T, out=out)
        if prof is not None:
            t0 = _profile.lap(prof, "fused_gemm", t0)
        if bias is not None:
            out += bias
        if cur is not h or recycle_input:
            arena_recycle(cur)
        cur = out
        if prof is not None:
            t0 = _profile.lap(prof, "fused.bias", t0)
        if i < n - 1:
            _elu_inplace(cur)
            if prof is not None:
                t0 = _profile.lap(prof, "fused.elu", t0)
    if kernel.gamma is not None:
        normed = fused_layer_norm(cur, kernel.gamma, kernel.beta, kernel.eps)
        arena_recycle(cur)
        cur = normed
        if prof is not None:
            _profile.lap(prof, "fused.layer_norm", t0)
    return cur


def _mlp_residual(cat: np.ndarray, base: np.ndarray, kernel: MLPKernel, prof, t0) -> np.ndarray:
    """``base + MLP(cat)`` — the shared tail of Eqs. 4a and 4e.

    ``cat`` is the caller's freshly filled concat buffer (consumed);
    ``t0`` is when the caller began filling it.
    """
    if prof is not None:
        _profile.lap(prof, "fused.gather_concat", t0)
    h = fused_mlp(cat, kernel, recycle_input=True)
    if prof is not None:
        t0 = time.perf_counter()
    out = _buf(np.broadcast_shapes(base.shape, h.shape), np.result_type(base, h))
    np.add(base, h, out=out)
    arena_recycle(h)
    if prof is not None:
        _profile.lap(prof, "fused.residual", t0)
    return out


def fused_edge_mlp(
    x: np.ndarray,
    e: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    kernel: MLPKernel,
) -> np.ndarray:
    """Eq. 4a fused: ``e + EdgeMLP([x_src, x_dst, e])`` over all edges.

    The sender/receiver gathers pass through one pooled row buffer into
    the concat buffer the first GEMM reads — no staging tensors, no
    separate concatenate pass, no allocation. Edge order is whatever
    the graph carries (receiver-major from the mesh builder), so the
    caller's follow-up aggregation runs the planned identity-permutation
    scatter. ``src``/``dst`` must be in-range (graph invariant; plans
    validate at compile time).
    """
    prof = _profile.current_profiler()
    t0 = time.perf_counter() if prof is not None else 0.0
    n_edges, width = e.shape
    hx = x.shape[1]
    cat = _buf((n_edges, 2 * hx + width), np.result_type(x, e))
    rows = pooled_take(x, src)
    cat[:, :hx] = rows
    np.take(x, dst, axis=0, out=rows, mode="clip")
    cat[:, hx : 2 * hx] = rows
    arena_recycle(rows)
    cat[:, 2 * hx :] = e
    return _mlp_residual(cat, e, kernel, prof, t0)


def fused_aggregate(e, inv_degree, plan) -> np.ndarray:
    """Eq. 4b fused: degree-scale then run the planned scatter.

    ``plan`` is the graph's receiver (``scatter_dst``) aggregation plan
    — presorted edges make this the identity-permutation contiguous
    path. ``inv_degree=None`` skips the scaling (the ablation switch,
    and every graph whose ``d_ij`` are all 1).
    """
    if inv_degree is None:
        return plan.scatter_add(e)
    prof = _profile.current_profiler()
    t0 = time.perf_counter() if prof is not None else 0.0
    prod = _buf(
        np.broadcast_shapes(e.shape, inv_degree.shape),
        np.result_type(e, inv_degree),
    )
    np.multiply(e, inv_degree, out=prod)
    if prof is not None:
        _profile.lap(prof, "fused.degree_scale", t0)
    out = plan.scatter_add(prod)
    arena_recycle(prod)
    return out


def fused_node_mlp(x: np.ndarray, a: np.ndarray, kernel: MLPKernel) -> np.ndarray:
    """Eq. 4e fused: ``x + NodeMLP([a, x])`` with an in-buffer concat."""
    prof = _profile.current_profiler()
    t0 = time.perf_counter() if prof is not None else 0.0
    ha = a.shape[1]
    cat = _buf((x.shape[0], ha + x.shape[1]), np.result_type(a, x))
    cat[:, :ha] = a
    cat[:, ha:] = x
    return _mlp_residual(cat, x, kernel, prof, t0)
