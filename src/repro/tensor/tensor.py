"""Core ``Tensor`` type and the reverse-mode backward pass.

Design notes
------------
* A ``Tensor`` wraps a numpy array (``.data``) plus autograd metadata:
  the parent tensors it was computed from and a closure that, given the
  gradient w.r.t. this tensor, accumulates gradients into the parents.
* The graph is a DAG of ``Tensor`` objects; ``backward()`` runs an
  iterative topological sort (no recursion, so graphs with hundreds of
  thousands of nodes — one per *operation*, not per mesh node — are fine).
* Gradients accumulate into ``.grad`` as plain numpy arrays.
* Gradient tracking can be suspended globally with :func:`no_grad`,
  mirroring ``torch.no_grad``; inference paths use it to avoid building
  graphs.

Everything defaults to ``float64`` so that the paper's arithmetic
consistency claims can be asserted to tight tolerances.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float64

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations currently record autograd graphs."""
    return getattr(_grad_state, "enabled", True)


def set_grad_enabled(enabled: bool) -> None:
    """Globally enable or disable autograd recording (per thread)."""
    _grad_state.enabled = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd recording.

    Thread-local, so concurrent ranks in a
    :class:`repro.comm.threaded.ThreadWorld` can independently toggle it.
    """
    prev = is_grad_enabled()
    set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(prev)


@contextlib.contextmanager
def inference_mode(arena=None):
    """``no_grad`` plus a per-thread inference workspace arena.

    Inside the scope, the fused inference kernels, the aggregation
    plans and the halo exchange draw their buffers from the arena (see
    :mod:`repro.tensor.workspace`) and recycle them explicitly, so a
    steady-state loop makes zero large allocations after warmup; the
    ``Tensor`` ops themselves never touch it. Yields the active
    :class:`~repro.tensor.workspace.InferenceArena`.

    An arena buffer handed to a caller (a model output under
    ``fast_math()``) is only valid until the caller recycles it — copy
    anything that must outlive that (the rollout loop already does).
    """
    from repro.tensor.workspace import arena_scope

    with no_grad():
        with arena_scope(arena) as active:
            yield active


def asarray(x, dtype=None) -> np.ndarray:
    """Coerce ``x`` (Tensor, ndarray, scalar, nested list) to ndarray."""
    if isinstance(x, Tensor):
        x = x.data
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype.kind == "f" and arr.dtype != _DEFAULT_DTYPE:
        # keep float32 if explicitly given; only object/float16 promoted
        if arr.dtype == np.float16:
            arr = arr.astype(_DEFAULT_DTYPE)
    elif arr.dtype.kind in "iub":
        pass  # integer/bool arrays stay as-is (index arrays, masks)
    elif arr.dtype.kind != "f":
        arr = arr.astype(_DEFAULT_DTYPE)
    return arr


def astensor(x, dtype=None) -> "Tensor":
    """Coerce to :class:`Tensor` (no-op if already one and dtype matches)."""
    if isinstance(x, Tensor):
        if dtype is None or x.data.dtype == dtype:
            return x
        return Tensor(x.data.astype(dtype), requires_grad=x.requires_grad)
    return Tensor(asarray(x, dtype))


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload. Floating data defaults to float64.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this
        tensor during :meth:`backward`.
    parents:
        Tensors this one was computed from (autograd edges).
    backward_fn:
        Closure ``g -> None`` that routes the incoming gradient ``g``
        (an ndarray of ``self.shape``) into the parents via
        :meth:`Tensor._accumulate`.
    name:
        Optional label used in ``repr`` and debugging.
    """

    # __weakref__ lets the inference workspace pool hook buffer recycling
    # onto tensor death (see repro.tensor.workspace)
    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward_fn", "name",
        "__weakref__",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(shape, dtype=_DEFAULT_DTYPE, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, dtype=_DEFAULT_DTYPE, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        from repro.tensor.ops import transpose

        return transpose(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad}{tag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        from repro.tensor.ops import astype as _astype

        return _astype(self, dtype)

    # -- autograd --------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad`` (allocating on first use)."""
        if not self.requires_grad and self._backward_fn is None:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def _needs_graph(self) -> bool:
        return self.requires_grad or self._backward_fn is not None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to 1 for scalar tensors (the usual
            ``loss.backward()`` pattern).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        topo = _topological_order(self)
        # transient gradient buffers for interior (non-leaf) nodes
        grads: dict[int, np.ndarray] = {id(self): grad}
        owners: dict[int, Tensor] = {id(t): t for t in topo}

        for t in topo:  # topo is root-first (reverse topological order)
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad:
                t._accumulate(g)
            if t._backward_fn is not None:
                # The backward closure accumulates into parents via the
                # `grads` dict, exposed through a thread-local shim:
                _BackwardContext.push(grads, owners)
                try:
                    t._backward_fn(g)
                finally:
                    _BackwardContext.pop()

    # -- operator sugar (implemented in ops.py) --------------------------------

    def __add__(self, other):
        from repro.tensor.ops import add

        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.tensor.ops import sub

        return sub(self, other)

    def __rsub__(self, other):
        from repro.tensor.ops import sub

        return sub(other, self)

    def __mul__(self, other):
        from repro.tensor.ops import mul

        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.tensor.ops import div

        return div(self, other)

    def __rtruediv__(self, other):
        from repro.tensor.ops import div

        return div(other, self)

    def __neg__(self):
        from repro.tensor.ops import neg

        return neg(self)

    def __pow__(self, exponent):
        from repro.tensor.ops import power

        return power(self, exponent)

    def __matmul__(self, other):
        from repro.tensor.ops import matmul

        return matmul(self, other)

    def __getitem__(self, key):
        from repro.tensor.ops import getitem

        return getitem(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor.ops import sum as _sum

        return _sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.tensor.ops import mean as _mean

        return _mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.tensor.ops import reshape as _reshape

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    def transpose(self, axes=None):
        from repro.tensor.ops import transpose as _transpose

        return _transpose(self, axes)


class _BackwardContext:
    """Thread-local stack exposing the active backward gradient buffers.

    Backward closures created by ops call :meth:`accumulate` to deposit
    parent gradients. Interior (non-leaf) gradients live in a dict keyed
    by tensor identity so they can be freed as soon as consumed, keeping
    peak memory at O(width of the graph) instead of O(total ops).
    """

    _local = threading.local()

    @classmethod
    def _stack(cls) -> list:
        stack = getattr(cls._local, "stack", None)
        if stack is None:
            stack = []
            cls._local.stack = stack
        return stack

    @classmethod
    def push(cls, grads: dict, owners: dict) -> None:
        cls._stack().append((grads, owners))

    @classmethod
    def pop(cls) -> None:
        cls._stack().pop()

    @classmethod
    def accumulate(cls, tensor: Tensor, grad: np.ndarray) -> None:
        stack = cls._stack()
        if not stack:
            # Backward called outside a backward() pass (e.g. manual
            # adjoint plumbing in tests): accumulate directly.
            tensor._accumulate(grad)
            return
        grads, owners = stack[-1]
        key = id(tensor)
        if key not in owners:
            # tensor not part of this backward graph (e.g. detached)
            if tensor.requires_grad:
                tensor._accumulate(grad)
            return
        if key in grads:
            grads[key] = grads[key] + grad
        else:
            # Backward closures never mutate their incoming gradient in
            # place, so a reference (even a view) is safe to store.
            grads[key] = grad


def accumulate_parent_grad(tensor: Tensor, grad: np.ndarray) -> None:
    """Deposit ``grad`` for ``tensor`` inside the active backward pass.

    This is the single entry point backward closures use; it routes to
    the transient buffer managed by :meth:`Tensor.backward`.
    """
    if grad.dtype != tensor.data.dtype:
        grad = grad.astype(tensor.data.dtype)
    _BackwardContext.accumulate(tensor, grad)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in reverse topological order.

    Iterative post-order DFS; only tensors that participate in the graph
    (have a backward_fn or require grad) are visited.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        nid = id(node)
        if nid in visited:
            continue
        visited.add(nid)
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p._needs_graph():
                stack.append((p, False))
    order.reverse()
    return order


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over axes that were added or stretched by numpy broadcasting.
    """
    if grad.shape == shape:
        return grad
    # sum over leading dims that were prepended
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over dims that were stretched from 1
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def collect_parents(*candidates: Iterable) -> tuple[Tensor, ...]:
    """Filter op inputs down to the tensors that need graph edges."""
    return tuple(c for c in candidates if isinstance(c, Tensor) and c._needs_graph())
