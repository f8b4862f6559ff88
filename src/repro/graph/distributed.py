"""Reduced distributed graph construction (Figs. 3–4 of the paper).

Given a mesh and a partition, :func:`build_distributed_graph` produces
one :class:`LocalGraph` per rank:

1. **Local coincident collapse** — each rank's element point-cloud is
   deduplicated by global ID, so faces shared by same-rank elements are
   stored once (the *reduced* representation of Fig. 3c).
2. **Edges** — within-element lattice edges, deduplicated per rank.
3. **Degrees** — for every local node and edge, the number of ranks
   holding a copy (``d_i``, ``d_ij``). These feed the ``1/d`` scalings
   that make aggregation and loss partition-invariant.
4. **Halo plan** — for every pair of ranks sharing global IDs, matching
   send masks / receive layouts sorted by global ID, plus the
   halo-row → local-row accumulation map.

The builder runs with global knowledge (it plays the role of the
NekRS-GNN plugin, which walks the partitioned solver mesh); the result
is a plain per-rank payload that each rank then consumes independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.modes import ExchangeSpec
from repro.graph.build import edges_global_for_elements
from repro.graph.features import EDGE_FEATURES_GEOMETRIC, edge_features
from repro.graph.halo import HaloPlan
from repro.mesh.box import BoxMesh
from repro.mesh.partition import Partition


@dataclass
class LocalGraph:
    """One rank's sub-graph in the reduced distributed representation.

    Attributes
    ----------
    rank, size:
        Rank index and world size.
    global_ids:
        ``(n_local,)`` sorted global node IDs of the (collapsed) local
        nodes; row ``i`` of every node attribute matrix corresponds to
        ``global_ids[i]``.
    pos:
        ``(n_local, 3)`` node positions.
    edge_index:
        ``(2, n_edges)`` **local** (sender, receiver) indices, directed.
    edge_degree:
        ``(n_edges,)`` number of ranks carrying a copy of each edge
        (``d_ij`` in Eq. 4b).
    node_degree:
        ``(n_local,)`` number of ranks carrying a copy of each node
        (``d_i`` in Eq. 6).
    halo:
        The rank's :class:`HaloPlan`.
    """

    rank: int
    size: int
    global_ids: np.ndarray
    pos: np.ndarray
    edge_index: np.ndarray
    edge_degree: np.ndarray
    node_degree: np.ndarray
    halo: HaloPlan

    @property
    def n_local(self) -> int:
        return len(self.global_ids)

    @property
    def n_edges(self) -> int:
        return self.edge_index.shape[1]

    @property
    def n_halo(self) -> int:
        return self.halo.n_halo

    @property
    def plans(self):
        """Compiled aggregation plans (:class:`repro.graph.plans.GraphPlans`).

        Lazily compiled on first use and cached on the instance —
        ``edge_index`` and the halo map must not be mutated afterwards.
        While plans are globally disabled (inside a
        :func:`repro.tensor.naive_aggregation` scope)
        no *new* compile happens: the property returns the cached plans
        if a prior enabled call built them, else None. Ops gate on the
        global switch themselves, so a non-None return never forces the
        plan path — do not use ``plans is None`` as the disabled signal.
        """
        from repro.graph.plans import compile_graph_plans
        from repro.tensor.aggregation import aggregation_plans_enabled

        cached = self.__dict__.get("_plans")
        if cached is None and aggregation_plans_enabled():
            cached = compile_graph_plans(self)
            self.__dict__["_plans"] = cached
        return cached

    @property
    def inv_edge_degree(self) -> np.ndarray:
        """``1 / d_ij`` (Eq. 4b scaling), cached per instance."""
        cached = self.__dict__.get("_inv_edge_degree")
        if cached is None:
            cached = 1.0 / self.edge_degree
            self.__dict__["_inv_edge_degree"] = cached
        return cached

    @property
    def unit_edge_degree(self) -> bool:
        """Whether every ``d_ij`` is 1 — no edge is replicated on another
        rank (always so on an un-partitioned graph), so Eq. 4b's scaling
        is the identity. Cached per instance."""
        cached = self.__dict__.get("_unit_edge_degree")
        if cached is None:
            cached = bool(np.all(self.edge_degree == 1))
            self.__dict__["_unit_edge_degree"] = cached
        return cached

    def edge_attr(self, node_features: np.ndarray | None = None,
                  kind: str = EDGE_FEATURES_GEOMETRIC) -> np.ndarray:
        """Input edge features of this sub-graph (see
        :func:`repro.graph.features.edge_features`)."""
        return edge_features(self.pos, self.edge_index, node_features, kind)

    def cached_nbytes(self) -> int:
        """Bytes of lazily built per-instance state (compiled plans,
        ``1/d_ij``, geometric edge features).

        The graph module owns this inventory so byte-accurate cache
        accounting elsewhere (``repro.serve.cache``) stays correct when
        a new per-instance cache is added here — extend this method in
        the same change that adds the cache.
        """
        total = 0
        plans = self.__dict__.get("_plans")
        if plans is not None:
            total += plans.nbytes
        for name in ("_inv_edge_degree", "_geometric_edge_attr"):
            arr = self.__dict__.get(name)
            if arr is not None:
                total += arr.nbytes
        return total

    def geometric_edge_attr(self) -> np.ndarray:
        """State-independent edge features, computed once and cached.

        The geometric variant depends only on ``pos``/``edge_index``,
        so the hot stepping loop can reuse one array across every step
        of every batch instead of recomputing per call. The cached
        array is shared read-only — callers must not mutate it. Its
        bytes count toward serve-cache accounting.
        """
        cached = self.__dict__.get("_geometric_edge_attr")
        if cached is None:
            cached = self.edge_attr(kind=EDGE_FEATURES_GEOMETRIC)
            self.__dict__["_geometric_edge_attr"] = cached
        return cached

    def validate(self) -> None:
        """Internal consistency checks (used by tests and on demand)."""
        if not np.all(np.diff(self.global_ids) > 0):
            raise AssertionError("global_ids must be strictly increasing")
        if self.edge_index.size and self.edge_index.max() >= self.n_local:
            raise AssertionError("edge_index references nonexistent local node")
        if len(self.node_degree) != self.n_local:
            raise AssertionError("node_degree length mismatch")
        if len(self.edge_degree) != self.n_edges:
            raise AssertionError("edge_degree length mismatch")
        if self.node_degree.min() < 1 or self.edge_degree.min() < 1:
            raise AssertionError("degrees must be >= 1")
        if self.halo.n_halo and self.halo.halo_to_local.max() >= self.n_local:
            raise AssertionError("halo_to_local references nonexistent local node")


@dataclass
class DistributedGraph:
    """The full partitioned graph: one :class:`LocalGraph` per rank."""

    mesh: BoxMesh
    partition: Partition
    locals: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.partition.size

    @property
    def n_global_nodes(self) -> int:
        return self.mesh.n_unique_nodes

    def local(self, rank: int) -> LocalGraph:
        return self.locals[rank]

    def assemble_global(self, per_rank_values: list) -> np.ndarray:
        """Merge per-rank node arrays into one global array ordered by ID.

        Copies of the same global node must agree across ranks (that is
        the consistency property!); disagreement raises.
        """
        f = np.asarray(per_rank_values[0])
        out = np.full((self.n_global_nodes,) + f.shape[1:], np.nan)
        seen = np.zeros(self.n_global_nodes, dtype=bool)
        for lg, vals in zip(self.locals, per_rank_values):
            vals = np.asarray(vals)
            if vals.shape[0] != lg.n_local:
                raise ValueError(
                    f"rank {lg.rank}: value rows {vals.shape[0]} != local nodes {lg.n_local}"
                )
            dup = seen[lg.global_ids]
            if dup.any():
                if not np.allclose(
                    out[lg.global_ids[dup]], vals[dup], rtol=1e-9, atol=1e-11
                ):
                    raise AssertionError(
                        f"rank {lg.rank}: coincident-node values disagree across ranks "
                        "(inconsistent evaluation?)"
                    )
            out[lg.global_ids] = vals
            seen[lg.global_ids] = True
        if not seen.all():
            raise AssertionError("some global nodes received no value")
        return out


def build_full_graph(mesh: BoxMesh) -> LocalGraph:
    """The un-partitioned ``R = 1`` graph (paper's consistency target)."""
    part = Partition(np.zeros(mesh.n_elements, dtype=np.int64), 1)
    return build_distributed_graph(mesh, part).local(0)


def build_distributed_graph(mesh: BoxMesh, partition: Partition) -> DistributedGraph:
    """Construct the reduced distributed graph for every rank.

    See the module docstring for the four construction stages.
    """
    size = partition.size
    # -- stage 1: per-rank collapsed node sets --------------------------------
    local_gids: list[np.ndarray] = []
    vectorized = hasattr(mesh, "elements_global_ids")
    for r in range(size):
        elems = partition.elements_of(r)
        if vectorized:
            ids = mesh.elements_global_ids(elems).ravel()
        else:
            ids = np.concatenate([mesh.element_global_ids(int(e)) for e in elems])
        local_gids.append(np.unique(ids))  # sorted, deduplicated

    # -- stage 3a: node degrees (copies across ranks) --------------------------
    copy_count = np.zeros(mesh.n_unique_nodes, dtype=np.int64)
    for gids in local_gids:
        copy_count[gids] += 1

    # -- stage 2: per-rank edges (deduplicated within rank) --------------------
    rank_edges_global: list[np.ndarray] = []
    for r in range(size):
        rank_edges_global.append(
            edges_global_for_elements(mesh, partition.elements_of(r))
        )

    # -- stage 3b: edge degrees (copies across ranks) --------------------------
    n = mesh.n_unique_nodes
    edge_keys = [e[0].astype(np.int64) * n + e[1] for e in rank_edges_global]
    if size > 1:
        all_keys = np.concatenate(edge_keys)
        uniq, counts = np.unique(all_keys, return_counts=True)
        edge_degrees = [
            counts[np.searchsorted(uniq, k)].astype(np.float64) for k in edge_keys
        ]
    else:
        edge_degrees = [np.ones(len(edge_keys[0]), dtype=np.float64)]

    # -- stage 4: halo plans ---------------------------------------------------
    shared: dict[tuple[int, int], np.ndarray] = {}
    for r in range(size):
        for s in range(r + 1, size):
            common = np.intersect1d(local_gids[r], local_gids[s], assume_unique=True)
            if common.size:
                shared[(r, s)] = common
    pad_count = max((len(v) for v in shared.values()), default=0)

    graphs: list[LocalGraph] = []
    for r in range(size):
        gids = local_gids[r]
        neighbors = []
        send_indices: dict[int, np.ndarray] = {}
        recv_counts: dict[int, int] = {}
        halo_blocks: list[np.ndarray] = []
        for s in range(size):
            if s == r:
                continue
            common = shared.get((min(r, s), max(r, s)))
            if common is None:
                continue
            neighbors.append(s)
            # positions of the shared (sorted) gids in my sorted local ids
            idx = np.searchsorted(gids, common)
            send_indices[s] = idx.astype(np.int64)
            recv_counts[s] = len(common)
            halo_blocks.append(idx.astype(np.int64))
        spec = ExchangeSpec(
            size=size,
            neighbors=tuple(neighbors),
            send_indices=send_indices,
            recv_counts=recv_counts,
            pad_count=pad_count,
        )
        halo = HaloPlan(
            spec=spec,
            halo_to_local=(
                np.concatenate(halo_blocks) if halo_blocks else np.empty(0, dtype=np.int64)
            ),
        )
        # local edge indices
        eg = rank_edges_global[r]
        edge_index = np.searchsorted(gids, eg).astype(np.int64)
        lg = LocalGraph(
            rank=r,
            size=size,
            global_ids=gids,
            pos=mesh.node_positions(gids),
            edge_index=edge_index,
            edge_degree=edge_degrees[r],
            node_degree=copy_count[gids].astype(np.float64),
            halo=halo,
        )
        graphs.append(lg)

    return DistributedGraph(mesh=mesh, partition=partition, locals=graphs)
