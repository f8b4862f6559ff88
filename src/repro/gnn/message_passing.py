"""The consistent neural message passing layer (Eq. 4 of the paper).

One layer performs, on each rank ``r``'s sub-graph:

====  ==========================  =============================================
step  equation                    implementation
====  ==========================  =============================================
4a    edge update                 ``e <- e + EdgeMLP([x_i, x_j, e])``
4b    local edge aggregation      ``a_i = sum_j (1 / d_ij) * e_ij``
4c    halo swap                   differentiable exchange of the aggregates
4d    synchronization             ``a*_i = a_i + sum(halo copies of i)``
4e    node update                 ``x <- x + NodeMLP([a*, x])``
====  ==========================  =============================================

With ``halo_mode=NONE`` steps 4c–4d are skipped, which reproduces the
paper's *inconsistent* baseline (a conventional NMP layer): replicated
edges are then still degree-scaled but never re-assembled, so boundary
nodes see only a fraction of their true neighborhood.

The ``1/d_ij`` scaling and the post-exchange summation together make the
non-local aggregation *exactly* equal to what the un-partitioned graph
computes: every unique edge contributes its full value exactly once to
the global sum at its receiver (replicas contribute ``d * (1/d)``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm import HaloMode, halo_exchange_tensor
from repro.comm.autograd_ops import halo_exchange_raw
from repro.comm.backend import Communicator
from repro.graph.distributed import LocalGraph
from repro.nn import MLP, Module
from repro.obs import profile as _profile
from repro.tensor import Tensor, concatenate, gather_rows, scatter_add
from repro.tensor.fused import (
    fused_aggregate,
    fused_edge_mlp,
    fused_forward_enabled,
    fused_node_mlp,
)
from repro.tensor.workspace import arena_recycle


class ConsistentNMPLayer(Module):
    """One consistent NMP layer: edge/node MLPs plus the halo machinery.

    Parameters
    ----------
    hidden:
        Hidden channel dimensionality ``NH`` (node and edge features
        both live in this width once encoded).
    n_mlp_hidden:
        Middle-layer count of both MLPs (Table I's "MLP hidden layers").
    seed, name:
        Deterministic initialization identity (rank-independent).
    """

    def __init__(
        self,
        hidden: int,
        n_mlp_hidden: int,
        *,
        seed: int = 0,
        name: str = "nmp",
        degree_scaling: bool = True,
    ):
        super().__init__()
        self.hidden = hidden
        #: ablation switch: disable the 1/d_ij scaling of Eq. 4b. With it
        #: off, replicated boundary edges are double-counted after the
        #: sync step and Eq. 2 is violated — kept as a negative control
        #: (see benchmarks/test_paper_ablations.py).
        self.degree_scaling = degree_scaling
        self.edge_mlp = MLP(
            3 * hidden, hidden, hidden, n_mlp_hidden,
            final_norm=True, seed=seed, name=f"{name}.edge",
        )
        self.node_mlp = MLP(
            2 * hidden, hidden, hidden, n_mlp_hidden,
            final_norm=True, seed=seed, name=f"{name}.node",
        )

    def forward(
        self,
        x: Tensor,
        e: Tensor,
        graph: LocalGraph,
        comm: Communicator | None = None,
        halo_mode: HaloMode | str = HaloMode.NONE,
    ) -> tuple[Tensor, Tensor]:
        """Apply the layer; returns updated ``(x, e)``.

        ``comm`` may be omitted only when ``halo_mode`` is ``NONE`` or
        the world size is 1.
        """
        halo_mode = HaloMode.parse(halo_mode)
        # compiled segment-reduction schedules, cached on the graph
        # (None while plans are globally disabled — ops then fall back
        # to the naive np.add.at path, bit-for-bit identical)
        plans = graph.plans
        if fused_forward_enabled(plans):
            x_new, e_new = self._forward_fused(x.data, e.data, graph, comm, halo_mode)
            return Tensor(x_new), Tensor(e_new)
        src, dst = graph.edge_index[0], graph.edge_index[1]

        # Eq. 4a — edge update with residual
        x_src = gather_rows(x, src, plan=plans.gather_src if plans else None)
        x_dst = gather_rows(x, dst, plan=plans.scatter_dst if plans else None)
        e = e + self.edge_mlp(concatenate([x_src, x_dst, e], axis=1))

        # Eq. 4b — local aggregation scaled by inverse edge degree
        dst_plan = plans.scatter_dst if plans else None
        if self.degree_scaling:
            inv_deg = graph.inv_edge_degree.astype(e.dtype, copy=False)[:, None]
            a = scatter_add(e * inv_deg, dst, graph.n_local, plan=dst_plan)
        else:  # ablation: double-counts replicated edges (breaks Eq. 2)
            a = scatter_add(e, dst, graph.n_local, plan=dst_plan)

        # Eqs. 4c + 4d — halo swap and synchronization
        if halo_mode is not HaloMode.NONE and graph.size > 1:
            if comm is None:
                raise ValueError("halo exchange requested but no communicator given")
            halo_rows = halo_exchange_tensor(a, graph.halo.spec, comm, halo_mode)
            a = a + scatter_add(
                halo_rows,
                graph.halo.halo_to_local,
                graph.n_local,
                plan=plans.halo_scatter if plans else None,
            )

        # Eq. 4e — node update with residual
        x = x + self.node_mlp(concatenate([a, x], axis=1))
        return x, e

    def _forward_fused(
        self,
        x: np.ndarray,
        e: np.ndarray,
        graph: LocalGraph,
        comm: Communicator | None,
        halo_mode: HaloMode,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The same layer on raw arrays through the fused kernels.

        Bit-for-bit the op chain of :meth:`forward` in every dtype (see
        :mod:`repro.tensor.fused` for why); the halo sync (Eqs. 4c/4d)
        is the exchange engine under ``halo_exchange_tensor``, the
        planned halo scatter and the ``np.add`` behind ``Tensor.__add__``.
        Returns fresh arena buffers; ``x`` and ``e`` stay the caller's
        (:class:`~repro.gnn.architecture.MeshGNN` recycles them once
        the layer consumed them). Private to :mod:`repro.gnn`: the two
        callers check :func:`~repro.tensor.fused.fused_forward_enabled`.
        """
        src, dst = graph.edge_index[0], graph.edge_index[1]
        plans = graph.plans
        e_new = fused_edge_mlp(x, e, src, dst, self.edge_mlp.kernel())
        # e * 1.0 is the identity: an all-ones d_ij (every un-partitioned
        # graph) skips Eq. 4b's multiply, as the ablation switch does
        inv_degree = (
            graph.inv_edge_degree.astype(e_new.dtype, copy=False)[:, None]
            if self.degree_scaling and not graph.unit_edge_degree
            else None
        )
        a = fused_aggregate(e_new, inv_degree, plans.scatter_dst)
        if halo_mode is not HaloMode.NONE and graph.size > 1:
            if comm is None:
                raise ValueError("halo exchange requested but no communicator given")
            prof = _profile.current_profiler()
            t0 = time.perf_counter() if prof is not None else 0.0
            halo_rows = halo_exchange_raw(a, graph.halo.spec, comm, halo_mode, tag=0)
            if prof is not None:
                t0 = _profile.lap(prof, "halo.exchange", t0)
            if plans.halo_scatter is None:
                # a rank without halo rows still joined the collective;
                # the reference adds a zero block (-0.0 + 0.0 -> +0.0)
                np.add(a, 0.0, out=a)
            else:
                # the plan's un-timed body: this block is one lap, and
                # laps never nest
                sync = plans.halo_scatter._scatter_add(halo_rows)
                np.add(a, sync, out=a)
                arena_recycle(sync)
            arena_recycle(halo_rows)
            if prof is not None:
                _profile.lap(prof, "halo.sync", t0)
        x_new = fused_node_mlp(x, a, self.node_mlp.kernel())
        arena_recycle(a)
        return x_new, e_new
