"""Inference workspaces: recycled buffers for the no-grad hot loop.

Steady-state autoregressive rollout runs an identical kernel sequence
every step, so after one warmup step every buffer the loop needs
already exists. An :class:`InferenceArena` is a freelist pool keyed by
``(shape, dtype)``: the fused raw-array kernels
(:mod:`repro.tensor.fused`), the aggregation plans and the halo
exchange draw their outputs and temporaries from it with
:meth:`InferenceArena.out`, and whoever ends a buffer's lifetime hands
it back with :meth:`InferenceArena.recycle` — the kernel for its own
temporaries, the model forward for per-layer activations, the stepping
loop for states. A freed buffer is typically reusable two kernels
later, which keeps the cache-resident working set as small as the
allocator's hot-block reuse while eliminating the allocations
themselves.

Escape safety is the explicit contract: the pool only ever holds
buffers somebody recycled, and ``out`` removes a buffer from the pool
before returning it, so an array nobody recycles — a result kept by a
client, a view, a buffer a forgetful caller dropped — is never handed
out again; it is garbage-collected like any other array. Forgetting a
``recycle`` costs one allocation; wrong results need a *premature*
``recycle``, which is why each one sits at the point its buffer dies.

The arena is opt-in and thread-local: :func:`arena_scope` activates one
for the current thread (each rank thread of a
:class:`~repro.comm.threaded.ThreadWorld` owns a private arena), and
:func:`arena_out` hands out buffers only while autograd is not
recording.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

_active = threading.local()

#: Distinct (shape, dtype) freelists one arena keeps. A steady-state
#: loop uses a stable set far below this; the bound only engages under
#: shape churn (a persistent serve-worker arena fed many distinct
#: graphs / batch sizes), where the oldest variants' buffers are
#: released to the allocator instead of being hoarded forever.
MAX_SHAPE_VARIANTS = 256


class InferenceArena:
    """Per-thread buffer pool for the no-grad hot loop."""

    __slots__ = ("_free", "steps", "reallocations")

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        #: step (reset) count — diagnostics only
        self.steps = 0
        #: buffers created because the pool had none of the right
        #: (shape, dtype): constant after warmup means zero-alloc
        self.reallocations = 0

    def out(self, shape, dtype) -> np.ndarray:
        """A buffer of the requested shape/dtype (pooled or fresh).

        Contents are unspecified; callers fully overwrite.
        """
        # O(1) key: np.int64 dims hash and compare as ints, and every
        # dtype spelling normalises to the one np.dtype ``recycle`` sees
        free = self._free.get((tuple(shape), np.dtype(dtype)))
        if free:
            return free.pop()
        self.reallocations += 1
        return np.empty(shape, dtype=dtype)

    def recycle(self, buf: np.ndarray) -> None:
        """Eagerly return a buffer the caller guarantees is dead.

        Bounded: at most :data:`MAX_SHAPE_VARIANTS` distinct
        ``(shape, dtype)`` freelists are kept (a persistent arena fed
        ever-changing shapes must not hoard every size it ever saw);
        when the bound is hit, the stalest variants are dropped — their
        buffers return to the normal allocator, never to a caller.
        """
        key = (buf.shape, buf.dtype)
        free = self._free.get(key)
        if free is None:
            if len(self._free) >= MAX_SHAPE_VARIANTS:
                self._evict_stale_variants()
            free = self._free[key] = []
        free.append(buf)

    def _evict_stale_variants(self) -> None:
        # drop exhausted freelists first (zero cost), then the oldest
        # created ones; dropping a still-hot variant costs one
        # reallocation and re-creates its freelist at the back, so
        # repeated eviction converges on genuinely stale shapes
        for key in [k for k, v in self._free.items() if not v]:
            del self._free[key]
        while len(self._free) >= MAX_SHAPE_VARIANTS:
            del self._free[next(iter(self._free))]

    def reset(self) -> None:
        """Mark a loop-iteration boundary (statistics only — buffers
        recycle continuously as their lifetimes end, not per step)."""
        self.steps += 1

    @property
    def nbytes(self) -> int:
        """Bytes currently parked in the freelist."""
        return sum(b.nbytes for free in self._free.values() for b in free)

    def __repr__(self) -> str:
        pooled = sum(len(v) for v in self._free.values())
        return (
            f"InferenceArena(pooled={pooled}, nbytes={self.nbytes}, "
            f"steps={self.steps}, reallocations={self.reallocations})"
        )


def current_arena() -> InferenceArena | None:
    """The arena active on this thread, or None."""
    stack = getattr(_active, "stack", None)
    return stack[-1] if stack else None


def arena_out(shape, dtype) -> np.ndarray | None:
    """Buffer from the active arena, or None when no arena is active.

    ``None`` means "allocate normally". Never hands out a buffer while
    autograd is recording — a backward pass inside an arena scope must
    not interact with the pool.
    """
    arena = current_arena()
    if arena is None:
        return None
    from repro.tensor.tensor import is_grad_enabled

    if is_grad_enabled():
        return None
    return arena.out(shape, dtype)


def arena_recycle(buf: np.ndarray | None) -> None:
    """Eagerly return a dead buffer, if an arena is active."""
    if buf is None:
        return
    arena = current_arena()
    if arena is not None:
        arena.recycle(buf)


def pooled_take(src: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``src[rows]`` for *pre-validated* row indices, pooled when possible.

    ``mode="clip"`` selects numpy's fast ``take`` path (``mode="raise"``
    with ``out=`` is ~3x slower); callers guarantee
    ``0 <= rows < len(src)``, so clipping never engages. Without an
    active arena this is exactly fancy row indexing (a fresh, contiguous
    copy).
    """
    buf = arena_out((rows.shape[0],) + src.shape[1:], src.dtype)
    if buf is None:
        return src[rows]
    np.take(src, rows, axis=0, out=buf, mode="clip")
    return buf


@contextlib.contextmanager
def arena_scope(arena: InferenceArena | None = None):
    """Activate ``arena`` (or a fresh one) on this thread; yields it."""
    if arena is None:
        arena = InferenceArena()
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    stack.append(arena)
    try:
        yield arena
    finally:
        stack.pop()
