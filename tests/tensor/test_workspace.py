"""InferenceArena: pooling, explicit recycling, escape safety, thread scoping."""

import threading

import numpy as np

from repro.tensor import (
    InferenceArena,
    Tensor,
    arena_scope,
    current_arena,
    inference_mode,
    is_grad_enabled,
)
from repro.tensor import ops
from repro.tensor.workspace import arena_out


def test_no_arena_means_no_buffers():
    assert current_arena() is None
    assert arena_out((3, 3), np.float64) is None


def test_out_pops_recycled_buffer():
    arena = InferenceArena()
    a = arena.out((4, 2), np.float64)
    assert arena.reallocations == 1
    arena.recycle(a)
    b = arena.out((4, 2), np.float64)
    assert b is a
    assert arena.reallocations == 1
    # different shape -> fresh buffer
    c = arena.out((2, 4), np.float64)
    assert c is not a
    assert arena.reallocations == 2


def test_unrecycled_buffer_is_never_handed_out_twice():
    """The explicit-recycle contract: the pool holds only what somebody
    recycled, so a buffer still in use (or simply dropped) cannot come
    back from ``out`` — forgetting a recycle costs an allocation, never
    an aliased result."""
    arena = InferenceArena()
    with inference_mode(arena):
        held = arena_out((8, 3), np.float64)
        held[:] = 7.0
        others = [arena_out((8, 3), np.float64) for _ in range(4)]
        assert all(o is not held for o in others)
        assert len({id(o) for o in others}) == len(others)
        arena.recycle(others[0])
        assert arena_out((8, 3), np.float64) is others[0]  # only the recycled one
        assert arena_out((8, 3), np.float64) is not held
    np.testing.assert_array_equal(held, np.full((8, 3), 7.0))


def test_arena_inactive_while_recording():
    arena = InferenceArena()
    with arena_scope(arena):
        assert is_grad_enabled()
        assert arena_out((2, 2), np.float64) is None  # recording -> no pool
        t = ops.add(
            Tensor(np.ones((5, 2)), requires_grad=True), Tensor(np.ones((5, 2)))
        )
        t.sum().backward()  # backward untouched by the active arena
    assert arena.reallocations == 0


def test_inference_mode_disables_grad_and_scopes_arena():
    with inference_mode() as arena:
        assert not is_grad_enabled()
        assert current_arena() is arena
    assert is_grad_enabled()
    assert current_arena() is None


def test_arena_is_thread_local():
    seen = {}

    def worker():
        seen["inner"] = current_arena()

    with inference_mode() as arena:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert current_arena() is arena
    assert seen["inner"] is None


def test_arena_freelist_variants_are_bounded():
    """A persistent arena fed ever-changing shapes must not hoard every
    size it ever saw (serve workers keep arenas for the process
    lifetime); beyond MAX_SHAPE_VARIANTS the stalest variants drop."""
    from repro.tensor.workspace import MAX_SHAPE_VARIANTS, InferenceArena

    arena = InferenceArena()
    for n in range(MAX_SHAPE_VARIANTS * 2):
        arena.recycle(np.empty((n + 1,)))
    assert len(arena._free) <= MAX_SHAPE_VARIANTS
    # the pool still works: a hot shape round-trips through it
    buf = arena.out((3, 3), np.float64)
    arena.recycle(buf)
    assert arena.out((3, 3), np.float64) is buf
    # ...and nbytes stays bounded by what the retained variants hold
    assert arena.nbytes <= sum(
        b.nbytes for free in arena._free.values() for b in free
    )


def test_arena_eviction_prefers_exhausted_freelists():
    from repro.tensor.workspace import MAX_SHAPE_VARIANTS, InferenceArena

    arena = InferenceArena()
    for n in range(MAX_SHAPE_VARIANTS):
        arena.recycle(np.empty((n + 1,)))
    # drain one variant so its freelist is empty but the key remains
    drained = arena.out((1,), np.float64)
    assert drained.shape == (1,)
    live_keys = {k for k, v in arena._free.items() if v}
    # a brand-new shape evicts the exhausted key, not a live one
    arena.recycle(np.empty((MAX_SHAPE_VARIANTS + 7,)))
    assert live_keys <= set(arena._free)
