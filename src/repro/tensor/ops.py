"""Differentiable operations on :class:`repro.tensor.Tensor`.

Every op follows the same pattern: compute the numpy result eagerly,
and — if autograd is recording and any input participates in the graph —
attach a backward closure that routes the incoming gradient to the
parents with :func:`repro.tensor.tensor.accumulate_parent_grad`.

The gather/scatter pair (:func:`gather_rows`, :func:`scatter_add`) is
the workhorse of neural message passing: the edge-update step gathers
sender/receiver node rows, and the aggregation step scatter-adds edge
rows into node rows. Their backwards are each other's adjoints, which
is also the structural template for the distributed halo exchange in
:mod:`repro.comm.autograd_ops`.

Segment-reduction **plans** (:mod:`repro.tensor.aggregation`) replace
``np.add.at`` in ``scatter_add`` and the gather backwards with a
presorted, bitwise-identical schedule — pass ``plan=`` explicitly
(graphs cache theirs) or let the weak memo compile one per persistent
index array.

Every op has exactly one body — the autograd one — and that body is
also the *reference* the no-grad inference kernels
(:mod:`repro.tensor.fused`) are tested against bit for bit. Nothing
here knows about inference workspaces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.aggregation import (
    AggregationPlan,
    aggregation_plans_enabled,
    plan_for,
)
from repro.tensor.tensor import (
    Tensor,
    accumulate_parent_grad,
    asarray,
    astensor,
    collect_parents,
    is_grad_enabled,
    unbroadcast,
)


def _make(data, parents, backward_fn, name=None) -> Tensor:
    """Wrap an op result, attaching autograd metadata when recording."""
    if is_grad_enabled() and parents:
        return Tensor(data, parents=parents, backward_fn=backward_fn, name=name)
    return Tensor(data, name=name)


def _plan_index(index) -> bool:
    """Whether ``index`` is a plan-eligible row-index array."""
    return (
        isinstance(index, np.ndarray)
        and index.ndim == 1
        and index.dtype.kind in "iu"
    )


#: below this many scattered elements, plan compilation cannot pay for
#: itself even once — the naive unbuffered scatter stays cheaper
_PLAN_GRAD_MIN_ELEMENTS = 16384


def _scatter_grad(
    data: np.ndarray, index, g: np.ndarray, plan: AggregationPlan | None
) -> np.ndarray:
    """``np.add.at(zeros_like(data), index, g)`` through a plan when possible.

    The plan path (explicitly supplied or memoized per persistent index
    array) is bitwise identical to the naive unbuffered scatter; any
    ineligibility (non-1D key, negative indices, dtype mismatch) falls
    back to ``np.add.at``. Small scatters skip plan compilation — for
    index arrays seen once (a transient key), the argsort would cost
    more than it saves, while large one-shot scatters still win even
    including the compile.
    """
    if aggregation_plans_enabled() and g.dtype == data.dtype and _plan_index(index):
        if plan is None and g.size >= _PLAN_GRAD_MIN_ELEMENTS:
            try:
                plan = plan_for(index, data.shape[0])
            except ValueError:  # e.g. negative (wrapping) indices
                plan = None
        if plan is not None:
            return plan.scatter_add(g)
    grad = np.zeros_like(data)
    np.add.at(grad, index, g)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic (with numpy broadcasting)
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data + b.data
    parents = collect_parents(a, b)

    def backward(g):
        if a._needs_graph():
            accumulate_parent_grad(a, unbroadcast(g, a.data.shape))
        if b._needs_graph():
            accumulate_parent_grad(b, unbroadcast(g, b.data.shape))

    return _make(out, parents, backward)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data - b.data
    parents = collect_parents(a, b)

    def backward(g):
        if a._needs_graph():
            accumulate_parent_grad(a, unbroadcast(g, a.data.shape))
        if b._needs_graph():
            accumulate_parent_grad(b, unbroadcast(-g, b.data.shape))

    return _make(out, parents, backward)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data * b.data
    parents = collect_parents(a, b)

    def backward(g):
        if a._needs_graph():
            accumulate_parent_grad(a, unbroadcast(g * b.data, a.data.shape))
        if b._needs_graph():
            accumulate_parent_grad(b, unbroadcast(g * a.data, b.data.shape))

    return _make(out, parents, backward)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out = a.data / b.data
    parents = collect_parents(a, b)

    def backward(g):
        if a._needs_graph():
            accumulate_parent_grad(a, unbroadcast(g / b.data, a.data.shape))
        if b._needs_graph():
            accumulate_parent_grad(
                b, unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
            )

    return _make(out, parents, backward)


def neg(a) -> Tensor:
    a = astensor(a)
    parents = collect_parents(a)

    def backward(g):
        accumulate_parent_grad(a, -g)

    return _make(-a.data, parents, backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a *scalar* exponent."""
    a = astensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("power() supports scalar exponents only")
    out = a.data**exponent
    parents = collect_parents(a)

    def backward(g):
        accumulate_parent_grad(a, g * exponent * a.data ** (exponent - 1))

    return _make(out, parents, backward)


def log(a) -> Tensor:
    a = astensor(a)
    parents = collect_parents(a)

    def backward(g):
        accumulate_parent_grad(a, g / a.data)

    return _make(np.log(a.data), parents, backward)


def sqrt(a) -> Tensor:
    a = astensor(a)
    out = np.sqrt(a.data)
    parents = collect_parents(a)

    def backward(g):
        accumulate_parent_grad(a, g * (0.5 / out))

    return _make(out, parents, backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; at ties the gradient flows to ``a``."""
    a, b = astensor(a), astensor(b)
    mask = a.data >= b.data
    out = np.where(mask, a.data, b.data)
    parents = collect_parents(a, b)

    def backward(g):
        if a._needs_graph():
            accumulate_parent_grad(a, unbroadcast(np.where(mask, g, 0.0), a.data.shape))
        if b._needs_graph():
            accumulate_parent_grad(b, unbroadcast(np.where(mask, 0.0, g), b.data.shape))

    return _make(out, parents, backward)


def where(cond, a, b) -> Tensor:
    cond_arr = asarray(cond).astype(bool)
    a, b = astensor(a), astensor(b)
    out = np.where(cond_arr, a.data, b.data)
    parents = collect_parents(a, b)

    def backward(g):
        if a._needs_graph():
            accumulate_parent_grad(a, unbroadcast(np.where(cond_arr, g, 0.0), a.data.shape))
        if b._needs_graph():
            accumulate_parent_grad(b, unbroadcast(np.where(cond_arr, 0.0, g), b.data.shape))

    return _make(out, parents, backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = astensor(a)
    mask = a.data > 0
    out = np.where(mask, a.data, 0.0)
    parents = collect_parents(a)

    def backward(g):
        accumulate_parent_grad(a, np.where(mask, g, 0.0))

    return _make(out, parents, backward)


def elu(a, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit — the activation used throughout the paper.

    ``elu(x) = x`` for ``x > 0``, ``alpha * (exp(x) - 1)`` otherwise.
    """
    a = astensor(a)
    pos = a.data > 0
    neg_exp = alpha * np.exp(np.minimum(a.data, 0.0))  # clamp avoids overflow
    out = np.where(pos, a.data, neg_exp - alpha)
    parents = collect_parents(a)

    def backward(g):
        accumulate_parent_grad(a, np.where(pos, g, g * neg_exp))

    return _make(out, parents, backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; supports 1D/2D operands like ``np.matmul``."""
    a, b = astensor(a), astensor(b)
    out = a.data @ b.data
    parents = collect_parents(a, b)
    if a.data.ndim > 2 or b.data.ndim > 2:
        raise NotImplementedError("matmul supports 1D and 2D operands")

    def backward(g):
        ga = gb = None
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 1:
            ga, gb = g * bd, g * ad
        elif ad.ndim == 2 and bd.ndim == 2:
            ga, gb = g @ bd.T, ad.T @ g
        elif ad.ndim == 1:  # (k,) @ (k, n) -> (n,)
            ga, gb = bd @ g, np.outer(ad, g)
        else:  # (m, k) @ (k,) -> (m,)
            ga, gb = np.outer(g, bd), ad.T @ g
        if a._needs_graph():
            accumulate_parent_grad(a, ga)
        if b._needs_graph():
            accumulate_parent_grad(b, gb)

    return _make(out, parents, backward)


def linear(x, weight, bias=None) -> Tensor:
    """Fused affine map ``x @ W.T + b`` (torch.nn.functional.linear).

    Fusing keeps the autograd graph small on hot paths (one node per
    layer instead of three).
    """
    x, weight = astensor(x), astensor(weight)
    out = x.data @ weight.data.T
    if bias is not None:
        bias = astensor(bias)
        out = out + bias.data
    parents = collect_parents(x, weight, bias) if bias is not None else collect_parents(x, weight)

    def backward(g):
        if x._needs_graph():
            accumulate_parent_grad(x, g @ weight.data)
        if weight._needs_graph():
            accumulate_parent_grad(weight, g.T @ x.data)
        if bias is not None and bias._needs_graph():
            accumulate_parent_grad(bias, g.sum(axis=tuple(range(g.ndim - 1))))

    return _make(out, parents, backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _normalize_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = astensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    parents = collect_parents(a)
    naxis = _normalize_axis(axis, a.data.ndim)

    def backward(g):
        g = np.asarray(g)
        if naxis is not None and not keepdims:
            g = np.expand_dims(g, naxis)
        accumulate_parent_grad(a, np.broadcast_to(g, a.data.shape))

    return _make(out, parents, backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    parents = collect_parents(a)
    naxis = _normalize_axis(axis, a.data.ndim)
    if naxis is None:
        count = a.data.size
    else:
        count = int(np.prod([a.data.shape[ax] for ax in naxis]))

    def backward(g):
        g = np.asarray(g)
        if naxis is not None and not keepdims:
            g = np.expand_dims(g, naxis)
        accumulate_parent_grad(a, np.broadcast_to(g, a.data.shape) / count)

    return _make(out, parents, backward)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    parents = collect_parents(a)
    orig_shape = a.data.shape

    def backward(g):
        accumulate_parent_grad(a, g.reshape(orig_shape))

    return _make(a.data.reshape(shape), parents, backward)


def transpose(a, axes=None) -> Tensor:
    a = astensor(a)
    parents = collect_parents(a)
    if axes is None:
        inv_axes = None
    else:
        axes = tuple(axes)
        inv_axes = tuple(np.argsort(axes))

    def backward(g):
        accumulate_parent_grad(a, g.transpose(inv_axes) if inv_axes else g.transpose())

    return _make(a.data.transpose(axes) if axes else a.data.T, parents, backward)


def astype(a, dtype) -> Tensor:
    a = astensor(a)
    parents = collect_parents(a)
    src_dtype = a.data.dtype

    def backward(g):
        accumulate_parent_grad(a, g.astype(src_dtype))

    return _make(a.data.astype(dtype), parents, backward)


def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    arrays = [t.data for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    parents = collect_parents(*tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t._needs_graph():
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(lo), int(hi))
                accumulate_parent_grad(t, g[tuple(sl)])

    return _make(out, parents, backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    parents = collect_parents(*tensors)

    def backward(g):
        slices = np.moveaxis(g, axis, 0)
        for t, gslice in zip(tensors, slices):
            if t._needs_graph():
                accumulate_parent_grad(t, gslice)

    return _make(out, parents, backward)


def getitem(a, key) -> Tensor:
    """Basic and integer-array indexing with gradient support.

    Integer-array keys may contain repeats; the backward accumulates
    repeated rows with ``np.add.at`` semantics (routed through a
    compiled segment-reduction plan for 1D integer-array keys — the
    embedding-gradient pattern — bitwise identical and much faster).
    """
    a = astensor(a)
    out = a.data[key]
    parents = collect_parents(a)

    def backward(g):
        if _plan_index(key):
            grad = _scatter_grad(a.data, key, g, None)
        else:
            grad = np.zeros_like(a.data)
            np.add.at(grad, key, g)
        accumulate_parent_grad(a, grad)

    return _make(out, parents, backward)


# ---------------------------------------------------------------------------
# gather / scatter (message-passing primitives)
# ---------------------------------------------------------------------------


def gather_rows(a, index, plan: AggregationPlan | None = None) -> Tensor:
    """Select rows ``a[index]`` for an integer index array.

    Adjoint of :func:`scatter_add` — the backward scatter-adds the
    incoming gradient back to the selected rows. ``plan`` is the
    (optional) compiled :class:`~repro.tensor.aggregation.AggregationPlan`
    of ``(index, len(a))`` — graphs cache these — used by the backward;
    without one, a memoized plan is compiled for persistent 1D indices.
    """
    a = astensor(a)
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise TypeError("gather_rows index must be an integer array")
    out = a.data[index]
    parents = collect_parents(a)

    def backward(g):
        accumulate_parent_grad(a, _scatter_grad(a.data, index, g, plan))

    return _make(out, parents, backward)


def scatter_add(
    src, index, dim_size: int, plan: AggregationPlan | None = None
) -> Tensor:
    """Sum rows of ``src`` into a ``(dim_size, ...)`` output by ``index``.

    ``out[index[k]] += src[k]`` — the edge-aggregation primitive
    (Eq. 4b of the paper). Adjoint of :func:`gather_rows`.

    ``plan`` is the compiled segment-reduction schedule of
    ``(index, dim_size)`` (see :mod:`repro.tensor.aggregation`); with
    one (and plans enabled), the forward runs as presorted contiguous
    adds — bitwise identical to the unbuffered ``np.add.at`` — instead
    of the ~10x slower naive scatter.
    """
    src = astensor(src)
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise TypeError("scatter_add index must be an integer array")
    if index.ndim != 1 or len(index) != src.data.shape[0]:
        raise ValueError(
            f"index must be 1D with length {src.data.shape[0]}, got shape {index.shape}"
        )
    if plan is not None and aggregation_plans_enabled():
        if plan.n_index != len(index) or plan.dim_size != dim_size:
            raise ValueError(
                f"plan was compiled for ({plan.n_index}, {plan.dim_size}), "
                f"got index length {len(index)} and dim_size {dim_size}"
            )
        out = plan.scatter_add(src.data)
    else:
        out = np.zeros((dim_size,) + src.data.shape[1:], dtype=src.data.dtype)
        np.add.at(out, index, src.data)
    parents = collect_parents(src)

    def backward(g):
        accumulate_parent_grad(src, g[index])

    return _make(out, parents, backward)


# ---------------------------------------------------------------------------
# normalization / losses
# ---------------------------------------------------------------------------


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters.

    Fused forward/backward (one graph node) — this op dominates graph
    size otherwise, since the paper's MLPs apply LayerNorm after every
    block.
    """
    x, gamma, beta = astensor(x), astensor(gamma), astensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gamma.data + beta.data
    parents = collect_parents(x, gamma, beta)
    n = x.data.shape[-1]

    def backward(g):
        if gamma._needs_graph():
            accumulate_parent_grad(
                gamma, (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
            )
        if beta._needs_graph():
            accumulate_parent_grad(beta, g.sum(axis=tuple(range(g.ndim - 1))))
        if x._needs_graph():
            gx_hat = g * gamma.data
            # standard layer-norm backward
            term1 = gx_hat
            term2 = gx_hat.mean(axis=-1, keepdims=True)
            term3 = xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
            accumulate_parent_grad(x, (term1 - term2 - term3) * inv_std)

    return _make(out, parents, backward, name="layer_norm")


def mse_loss(pred, target) -> Tensor:
    """Plain mean-squared error (Eq. 5) — the un-partitioned baseline.

    The distributed, partition-invariant version is
    :func:`repro.gnn.loss.consistent_mse_loss`.
    """
    pred, target = astensor(pred), astensor(target)
    diff = pred.data - target.data
    out = np.array(np.mean(diff * diff))
    parents = collect_parents(pred, target)
    scale = 2.0 / diff.size

    def backward(g):
        if pred._needs_graph():
            accumulate_parent_grad(pred, g * scale * diff)
        if target._needs_graph():
            accumulate_parent_grad(target, -g * scale * diff)

    return _make(out, parents, backward, name="mse")
