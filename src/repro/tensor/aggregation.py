"""Compiled aggregation plans: fast, bitwise-exact segment reduction.

``np.add.at`` — the naive engine behind :func:`repro.tensor.ops.scatter_add`
and the backward passes of the gather ops — is unbuffered and notoriously
~10x slower than a sorted segment reduction. This module precompiles, for
a fixed ``(index, dim_size)`` pair, everything the sorted reduction needs
(the stable sort permutation, segment boundaries, and per-degree position
tables) so the hot loop runs as vectorized contiguous adds over presorted
memory.

Bitwise contract
----------------
``np.add.reduceat`` is *not* used: its association order differs from
``np.add.at`` by up to 1 ulp (pairwise vs sequential accumulation), which
would break the paper's bitwise consistency assertions. Instead segments
are grouped by length and accumulated column-by-column::

    acc = block[:, 0] + 0.0
    acc += block[:, 1]
    ...

which reproduces the exact left-to-right per-destination add sequence of
``np.add.at`` on a stably sorted index — including the ``0.0 + x`` first
add (observable for ``-0.0`` inputs). ``tests/properties/
test_aggregation_plans.py`` asserts bitwise equality on random graphs.

Plans treat the index array contents as immutable: mutating an index
array after a plan was compiled for it (directly or through the
:func:`plan_for` memo) yields undefined results.

The :func:`naive_aggregation` scope keeps the naive path selectable —
it is the bottom rung every bitwise test and ``python -m repro bench``
compare against; it is process-global so the threaded multi-rank
backends see a consistent setting.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref

import numpy as np

from repro.obs import profile as _profile
from repro.tensor.workspace import arena_out, arena_recycle, pooled_take

#: reentrant disable count (naive_aggregation scopes); > 0 forces naive
_DISABLE_DEPTH = 0
_DISABLE_LOCK = threading.Lock()


def aggregation_plans_enabled() -> bool:
    """Whether ops route segment reductions through compiled plans."""
    return _DISABLE_DEPTH == 0


@contextlib.contextmanager
def naive_aggregation():
    """Context manager forcing the naive ``np.add.at`` path — the one
    way to select it (reference runs, benchmarks).

    Counted, not save/restored: concurrent scopes on different threads
    (each rank of a ``ThreadWorld`` wrapping its program) compose —
    plans stay disabled until the last scope exits, and an interleaved
    exit order cannot leave the global switch stuck.
    """
    global _DISABLE_DEPTH
    with _DISABLE_LOCK:
        _DISABLE_DEPTH += 1
    try:
        yield
    finally:
        with _DISABLE_LOCK:
            _DISABLE_DEPTH -= 1


def _segment_structure(sorted_index: np.ndarray):
    """``(starts, lengths, targets)`` of the runs in a sorted index."""
    n = len(sorted_index)
    boundaries = np.flatnonzero(np.diff(sorted_index)) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    lengths = np.diff(np.append(starts, n))
    targets = sorted_index[starts]
    return starts, lengths, targets


class AggregationPlan:
    """Precompiled segment-reduction schedule for one ``(index, dim_size)``.

    Parameters
    ----------
    index:
        1D integer array of destination rows (``0 <= index < dim_size``).
    dim_size:
        Output row count of the scatter.

    The plan stores, per distinct segment length ``L``, the target rows
    and the (sorted-order) source positions of every length-``L``
    segment, flattened to one fancy gather + ``L`` contiguous adds + one
    fancy write. Immutable after construction; safe to share across
    threads (all methods only read the plan).
    """

    __slots__ = ("dim_size", "n_index", "order", "groups", "max_segment")

    def __init__(self, index: np.ndarray, dim_size: int):
        index = np.asarray(index)
        if index.ndim != 1:
            raise ValueError(f"plan index must be 1D, got shape {index.shape}")
        if index.dtype.kind not in "iu":
            raise TypeError("plan index must be an integer array")
        if index.size and (index.min() < 0 or index.max() >= dim_size):
            raise ValueError(
                f"plan index values must lie in [0, {dim_size}), "
                f"got range [{index.min()}, {index.max()}]"
            )
        self.dim_size = int(dim_size)
        self.n_index = int(index.size)

        order = np.argsort(index, kind="stable").astype(np.int64)
        if self.n_index and np.array_equal(order, np.arange(self.n_index)):
            order = None  # pre-sorted (the mesh builder's receiver-major order)
        #: stable sort permutation (None when the index was presorted) —
        #: kept for introspection; execution uses positions already
        #: composed with it, so no separate permutation gather is paid
        self.order: np.ndarray | None = order if self.n_index else None

        #: list of ``(length, targets, positions, contiguous, first_pos)``
        #: where positions index directly into the *raw* (unsorted) src
        self.groups: tuple = ()
        self.max_segment = 0
        if not self.n_index:
            return
        sorted_index = index if order is None else index[order]
        starts, lengths, targets = _segment_structure(sorted_index)
        self.max_segment = int(lengths.max())
        groups = []
        for length in np.unique(lengths):
            sel = np.flatnonzero(lengths == length)
            pos = (starts[sel][:, None] + np.arange(length)[None, :]).ravel()
            if order is not None:
                pos = order[pos]  # fuse the permutation into the schedule
            contiguous = bool(pos.size) and bool(np.all(np.diff(pos) == 1))
            groups.append(
                (
                    int(length),
                    np.ascontiguousarray(targets[sel]),
                    np.ascontiguousarray(pos),
                    contiguous,
                    int(pos[0]) if pos.size else 0,
                )
            )
        self.groups = tuple(groups)

    # -- introspection ---------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident bytes of the compiled schedule (cache accounting)."""
        total = self.order.nbytes if self.order is not None else 0
        for _, targets, pos, _, _ in self.groups:
            total += targets.nbytes + pos.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"AggregationPlan(n_index={self.n_index}, dim_size={self.dim_size}, "
            f"groups={len(self.groups)}, max_segment={self.max_segment}, "
            f"presorted={self.order is None})"
        )

    # -- execution -------------------------------------------------------------

    def scatter_add(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``out[index[k]] += src[k]`` over a zeroed output.

        Bitwise identical to ``np.add.at(zeros, index, src)``. ``out``
        may be a preallocated ``(dim_size,) + src.shape[1:]`` workspace
        (it is zero-filled here); otherwise the active inference arena
        (if any) or a fresh allocation provides it.
        """
        # per-op profiling gate, lap-style like the fused kernels': one
        # global read + `is None` branches on the off-path (the
        # obs-overhead CI job asserts this is <1%)
        prof = _profile.current_profiler()
        t0 = time.perf_counter() if prof is not None else 0.0
        out = self._scatter_add(src, out)
        if prof is not None:
            _profile.lap(prof, "plan.scatter_add", t0)
        return out

    def _scatter_add(
        self, src: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        src = np.asarray(src)
        if src.shape[0] != self.n_index:
            raise ValueError(
                f"src has {src.shape[0]} rows, plan was compiled for {self.n_index}"
            )
        shape = (self.dim_size,) + src.shape[1:]
        if out is None:
            out = arena_out(shape, src.dtype)
        if out is None:
            out = np.zeros(shape, dtype=src.dtype)
        else:
            if out.shape != shape or out.dtype != src.dtype:
                raise ValueError(
                    f"out has shape {out.shape}/{out.dtype}, expected {shape}/{src.dtype}"
                )
            out.fill(0.0)
        if not self.n_index:
            return out
        tail = src.shape[1:]
        for length, targets, pos, contiguous, first in self.groups:
            if contiguous:
                gathered = None
                block = src[first : first + pos.size]
            else:
                gathered = block = pooled_take(src, pos)
            block = block.reshape((targets.size, length) + tail)
            # sequential left-to-right accumulation: matches np.add.at
            # exactly, including the 0.0 + first-element add
            acc = arena_out((targets.size,) + tail, src.dtype)
            if acc is None:
                acc = block[:, 0] + 0.0
            else:
                np.add(block[:, 0], 0.0, out=acc)
            for r in range(1, length):
                acc += block[:, r]
            out[targets] = acc
            arena_recycle(acc)
            if gathered is not None:
                arena_recycle(gathered)
        return out

    # -- composition -----------------------------------------------------------

    def tile(self, batch: int) -> "AggregationPlan":
        """Compose the plan of the ``batch``-fold block-diagonal tile.

        Copy ``k`` of the tiled graph occupies source rows
        ``[k * n_index, (k+1) * n_index)`` and destination rows
        ``[k * dim_size, (k+1) * dim_size)``, so the tiled schedule is
        the base schedule shifted per copy — no re-sort of the tiled
        index is ever performed. Bitwise equal to compiling a fresh plan
        on the tiled index (asserted by the property tests).
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch == 1:
            return self
        tiled = AggregationPlan.__new__(AggregationPlan)
        tiled.dim_size = self.dim_size * batch
        tiled.n_index = self.n_index * batch
        tiled.max_segment = self.max_segment
        if self.order is None:
            tiled.order = None
        else:
            tiled.order = np.concatenate(
                [self.order + k * self.n_index for k in range(batch)]
            )
        groups = []
        for length, targets, pos, _, _ in self.groups:
            t = np.concatenate([targets + k * self.dim_size for k in range(batch)])
            p = np.concatenate([pos + k * self.n_index for k in range(batch)])
            contiguous = bool(p.size) and bool(np.all(np.diff(p) == 1))
            groups.append(
                (length, t, p, contiguous, int(p[0]) if p.size else 0)
            )
        tiled.groups = tuple(groups)
        return tiled


# ---------------------------------------------------------------------------
# weak memo: plan_for(index, dim_size) without explicit caching by callers
# ---------------------------------------------------------------------------

#: id(index) -> {dim_size: AggregationPlan}; entries die with the array
_PLAN_MEMO: dict[int, dict[int, AggregationPlan]] = {}


def plan_for(index: np.ndarray, dim_size: int) -> AggregationPlan:
    """Memoized :class:`AggregationPlan` for a *persistent* index array.

    Keyed by array identity; a ``weakref.finalize`` on the array evicts
    the entry when the array is collected, so transient indices do not
    accumulate. Callers that own a long-lived index (a graph's edge
    list) get one compile over the process lifetime.
    """
    key = id(index)
    per_dim = _PLAN_MEMO.get(key)
    if per_dim is not None:
        plan = per_dim.get(dim_size)
        if plan is not None:
            return plan
    plan = AggregationPlan(index, dim_size)
    if per_dim is None:
        try:
            weakref.finalize(index, _PLAN_MEMO.pop, key, None)
        except TypeError:
            # object does not support weakrefs: compile without memoizing
            return plan
        per_dim = _PLAN_MEMO[key] = {}
    per_dim[dim_size] = plan
    return plan
