"""Serialization of per-rank graph payloads (the plugin's file format).

In the paper's actual workflow the NekRS-GNN plugin writes each rank's
connectivity, global IDs, and positions to disk; the PyTorch side reads
them back to build the distributed graph. This module provides that
interchange: one ``.npz`` per rank, containing everything a rank needs
to run the consistent GNN — including its halo plan — with validation
on load.

A rank payload has one reader whatever carried it: the ``.npz`` loader
here and the wire's graph upload (:func:`repro.serve.protocol.
parse_graph_upload`) both hand their fields to :func:`build_local_graph`
and their rank lists to :func:`check_rank_set`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.comm.modes import ExchangeSpec
from repro.graph.distributed import DistributedGraph, LocalGraph
from repro.graph.halo import HaloPlan

_FORMAT_VERSION = 1


def save_local_graph(graph: LocalGraph, path: str | Path) -> None:
    """Write one rank's :class:`LocalGraph` to an ``.npz`` file."""
    spec = graph.halo.spec
    neighbors = np.asarray(spec.neighbors, dtype=np.int64)
    payload = {
        "version": np.int64(_FORMAT_VERSION),
        "rank": np.int64(graph.rank),
        "size": np.int64(graph.size),
        "global_ids": graph.global_ids,
        "pos": graph.pos,
        "edge_index": graph.edge_index,
        "edge_degree": graph.edge_degree,
        "node_degree": graph.node_degree,
        "halo_to_local": graph.halo.halo_to_local,
        "neighbors": neighbors,
        "pad_count": np.int64(spec.pad_count),
        "recv_counts": np.asarray(
            [spec.recv_counts[n] for n in spec.neighbors], dtype=np.int64
        ),
    }
    for n in spec.neighbors:
        payload[f"send_idx_{n}"] = spec.send_indices[n]
    np.savez(Path(path), **payload)


def build_local_graph(
    rank, size, pad_count, neighbors, recv_counts, send_indices, fields
) -> LocalGraph:
    """One rank's :class:`LocalGraph` from its stored fields, validated.

    ``neighbors`` / ``recv_counts`` / ``send_indices`` are parallel
    sequences (one entry per halo neighbor); ``fields`` maps the array
    names (``global_ids``, ``pos``, ``edge_index``, ``edge_degree``,
    ``node_degree``, ``halo_to_local``) to their arrays. Scalars are
    coerced with ``int`` — they arrive as 0-d arrays from disk and as
    JSON numbers from the wire. Raises ``ValueError`` on mismatched
    neighbor metadata and ``AssertionError`` when the assembled graph
    fails :meth:`LocalGraph.validate`.
    """
    neighbors = tuple(int(n) for n in neighbors)
    recv_counts = list(recv_counts)
    if len(recv_counts) != len(neighbors):
        raise ValueError(
            f"rank {rank}: {len(neighbors)} neighbors "
            f"but {len(recv_counts)} recv counts"
        )
    spec = ExchangeSpec(
        size=int(size),
        neighbors=neighbors,
        send_indices=dict(zip(neighbors, send_indices)),
        recv_counts={n: int(c) for n, c in zip(neighbors, recv_counts)},
        pad_count=int(pad_count),
    )
    graph = LocalGraph(
        rank=int(rank),
        size=int(size),
        global_ids=fields["global_ids"],
        pos=fields["pos"],
        edge_index=fields["edge_index"],
        edge_degree=fields["edge_degree"],
        node_degree=fields["node_degree"],
        halo=HaloPlan(spec=spec, halo_to_local=fields["halo_to_local"]),
    )
    graph.validate()
    return graph


def check_rank_set(graphs: Sequence[LocalGraph]) -> None:
    """Raise ``ValueError`` unless ``graphs`` are a whole world: ranks
    ``0..R-1`` of one ``R``-rank world, in order, whose global IDs
    together cover ``0..n_global-1``."""
    ranks = [g.rank for g in graphs]
    if ranks != list(range(len(graphs))):
        raise ValueError(f"ranks are not a contiguous range: {ranks}")
    sizes = {g.size for g in graphs}
    if sizes != {len(graphs)}:
        raise ValueError(
            f"world-size mismatch across ranks: "
            f"{sorted(sizes)} != {{{len(graphs)}}}"
        )
    ids = np.concatenate([g.global_ids for g in graphs])
    n_global = 1 + int(ids.max(initial=-1))
    covered = np.count_nonzero(np.bincount(ids, minlength=n_global))
    if covered < n_global or not n_global:
        raise ValueError(
            f"the ranks' global IDs cover {covered} of the {n_global} nodes "
            f"0..{n_global - 1}: not a whole world"
        )


def load_local_graph(path: str | Path) -> LocalGraph:
    """Read a rank payload back; validates internal consistency."""
    with np.load(Path(path)) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported graph file version {version} (expected {_FORMAT_VERSION})"
            )
        return build_local_graph(
            data["rank"], data["size"], data["pad_count"],
            data["neighbors"], data["recv_counts"],
            [data[f"send_idx_{int(n)}"] for n in data["neighbors"]],
            data,
        )


def save_distributed_graph(dg: DistributedGraph, directory: str | Path) -> list[Path]:
    """Write every rank's payload as ``graph_rank{r:05d}.npz``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for lg in dg.locals:
        p = directory / f"graph_rank{lg.rank:05d}.npz"
        save_local_graph(lg, p)
        paths.append(p)
    return paths


def load_rank_graphs(directory: str | Path) -> list[LocalGraph]:
    """Load all rank payloads from a directory (sorted by rank)."""
    directory = Path(directory)
    files = sorted(directory.glob("graph_rank*.npz"))
    if not files:
        raise FileNotFoundError(f"no graph_rank*.npz files in {directory}")
    graphs = [load_local_graph(f) for f in files]
    check_rank_set(graphs)
    return graphs
