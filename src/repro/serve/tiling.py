"""Graph tiling: the numerical core of dynamic request batching.

A batch of ``B`` requests against the same :class:`LocalGraph` is
executed as ONE forward pass over a block-diagonal replica of the
graph: ``B`` disjoint copies of the nodes and edges stacked row-wise,
with the halo plan tiled so each copy exchanges only with its own
replicas on neighbor ranks. Every operation in the model (Linear,
LayerNorm, gather, scatter-add, halo exchange) is row-local or
accumulates in an order preserved per copy, so the batched result is
*bitwise identical* to running each request alone — asserted by
``tests/serve/test_consistency.py``. The win is amortization: one
``(B·N, F)`` matmul instead of ``B`` ``(N, F)`` matmuls, and one halo
collective instead of ``B``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.modes import ExchangeSpec
from repro.graph.distributed import LocalGraph
from repro.graph.halo import HaloPlan


def tile_local_graph(graph: LocalGraph, batch: int) -> LocalGraph:
    """Return the block-diagonal ``batch``-fold replica of ``graph``.

    Copy ``k`` occupies local rows ``[k*n_local, (k+1)*n_local)`` and
    edge rows ``[k*n_edges, (k+1)*n_edges)``. The halo plan is tiled
    per neighbor so the received block keeps the
    neighbor-after-neighbor layout the exchange engine produces, with
    copies ordered within each neighbor block on both sides of every
    channel (sender and receiver tile identically, so the pairing of
    rows is preserved).

    All ranks of a world must tile with the same ``batch`` — the tiled
    ``pad_count`` (used by dense-A2A buffers) scales accordingly.

    Thread safety: pure function of an immutable input — callers on
    different threads may tile the same ``LocalGraph`` concurrently
    (the input is only read; the returned replica shares no mutable
    state with it, and ``batch == 1`` returns the input unchanged).
    Determinism: the replica's row layout is a fixed function of
    ``(graph, batch)``, which is what makes the batched forward
    *bitwise* equal to per-request forwards — accumulation order within
    each copy is preserved exactly.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if batch == 1:
        return graph

    n = graph.n_local
    spec = graph.halo.spec

    def tile_rows_idx(idx: np.ndarray) -> np.ndarray:
        return np.concatenate([idx + k * n for k in range(batch)])

    send_indices = {nbr: tile_rows_idx(spec.send_indices[nbr]) for nbr in spec.neighbors}
    recv_counts = {nbr: spec.recv_counts[nbr] * batch for nbr in spec.neighbors}
    tiled_spec = ExchangeSpec(
        size=spec.size,
        neighbors=spec.neighbors,
        send_indices=send_indices,
        recv_counts=recv_counts,
        pad_count=spec.pad_count * batch,
    )
    # halo_to_local is laid out neighbor-after-neighbor; tile each
    # neighbor's slice independently to match the tiled recv layout
    blocks = []
    off = 0
    for nbr in spec.neighbors:
        cnt = spec.recv_counts[nbr]
        blocks.append(tile_rows_idx(graph.halo.halo_to_local[off : off + cnt]))
        off += cnt
    halo_to_local = (
        np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    )

    # keep global_ids strictly increasing (validate() holds on the tile)
    stride = int(graph.global_ids[-1]) + 1 if n else 0
    global_ids = np.concatenate(
        [graph.global_ids + k * stride for k in range(batch)]
    )
    edge_index = np.concatenate(
        [graph.edge_index + k * n for k in range(batch)], axis=1
    )
    tiled = LocalGraph(
        rank=graph.rank,
        size=graph.size,
        global_ids=global_ids,
        pos=np.concatenate([graph.pos] * batch, axis=0),
        edge_index=edge_index,
        edge_degree=np.concatenate([graph.edge_degree] * batch),
        node_degree=np.concatenate([graph.node_degree] * batch),
        halo=HaloPlan(spec=tiled_spec, halo_to_local=halo_to_local),
    )
    # compose the replica's aggregation plans from the base graph's
    # (per-copy index shifting — no re-sort of the tiled edge lists);
    # only when the base already compiled them, so the naive-path
    # benchmarks and plan-disabled runs stay plan-free
    base_plans = graph.__dict__.get("_plans")
    if base_plans is not None:
        tiled.__dict__["_plans"] = base_plans.tile(batch, halo_to_local)
    return tiled


def stitch_rank_graphs(graphs: Sequence[LocalGraph]) -> LocalGraph:
    """The ranks of one world as ONE block-diagonal graph, stepped on
    one thread.

    Rank ``r``'s rows and edges follow rank ``r - 1``'s; ``d_ij`` and
    ``d_i`` are kept, so Eq. 4b still scales replicated edges. The halo
    exchange becomes an in-process row gather: a self-channel
    ``ExchangeSpec`` (world size 1, neighbor 0) whose send rows are, for
    each rank and each of its neighbors in order, the neighbor's stitched
    rows that neighbor would have sent, and whose ``halo_to_local`` is
    each rank's own map shifted to its block. Every received row lands
    in the same place, in the same order, as under a rank world, so a
    stitched forward on :class:`~repro.comm.single.SingleProcessComm`
    with the ``n-a2a`` engine is bitwise the per-rank forwards. The
    stitched graph keeps ``size = R`` (the layers exchange because
    ``size > 1``); global IDs are shifted by ``r * n_global`` per rank so
    they stay strictly increasing. A one-rank world is its own stitch.

    Requires a whole world (:func:`repro.graph.io.check_rank_set`, held
    by every :class:`~repro.serve.cache.GraphAsset`). Compiles the
    stitched graph's aggregation plans unless plans are globally
    disabled, so its tiles compose them. Pure function of ``graphs``.
    """
    if len(graphs) == 1:
        return graphs[0]
    offsets = np.cumsum([0] + [g.n_local for g in graphs])
    n_global = 1 + max(int(g.global_ids[-1]) for g in graphs if g.n_local)
    halo_src, halo_to_local = [], []
    for r, g in enumerate(graphs):
        for nbr in g.halo.spec.neighbors:
            halo_src.append(offsets[nbr] + graphs[nbr].halo.spec.send_indices[r])
        halo_to_local.append(offsets[r] + g.halo.halo_to_local)
    empty = np.empty(0, dtype=np.int64)
    halo_src = np.concatenate(halo_src) if halo_src else empty
    halo_to_local = np.concatenate(halo_to_local)
    spec = ExchangeSpec(
        size=1, neighbors=(0,), send_indices={0: halo_src},
        recv_counts={0: len(halo_src)}, pad_count=len(halo_src),
    )
    stitched = LocalGraph(
        rank=0,
        size=len(graphs),
        global_ids=np.concatenate(
            [g.global_ids + r * n_global for r, g in enumerate(graphs)]
        ),
        pos=np.concatenate([g.pos for g in graphs]),
        edge_index=np.concatenate(
            [g.edge_index + off for g, off in zip(graphs, offsets)], axis=1
        ),
        edge_degree=np.concatenate([g.edge_degree for g in graphs]),
        node_degree=np.concatenate([g.node_degree for g in graphs]),
        halo=HaloPlan(spec=spec, halo_to_local=halo_to_local),
    )
    _ = stitched.plans  # lazy compile; None while plans are disabled
    return stitched


def stack_states(states: Sequence[np.ndarray]) -> np.ndarray:
    """Stack per-request ``(n_local, F)`` states into ``(B·n_local, F)``.

    Pure function (any thread); canonicalizes to ``float64`` and copies,
    so the stacked buffer never aliases request inputs. Row order
    follows the input order — copy ``k`` is ``states[k]`` exactly.
    """
    if not states:
        raise ValueError("no states to stack")
    return np.concatenate([np.asarray(s, dtype=np.float64) for s in states], axis=0)


def split_states(x: np.ndarray, batch: int) -> list[np.ndarray]:
    """Invert :func:`stack_states`: split rows back into ``batch`` copies.

    Pure function (any thread); returns fresh copies, so consumers may
    mutate them without corrupting the batched buffer. Bitwise inverse:
    ``split_states(stack_states(xs), len(xs))`` equals ``xs`` exactly.
    """
    if batch < 1 or x.shape[0] % batch:
        raise ValueError(f"cannot split {x.shape[0]} rows into {batch} copies")
    n = x.shape[0] // batch
    return [np.array(x[k * n : (k + 1) * n], copy=True) for k in range(batch)]
