"""Encode-process-decode mesh GNN (Sec. III of the paper).

1. **Node and edge encoders** — purely local MLPs lifting input features
   (3 velocity components; 4 or 7 edge components) to ``NH`` channels.
2. **Processor** — ``M`` consistent NMP layers
   (:class:`repro.gnn.message_passing.ConsistentNMPLayer`).
3. **Node decoder** — a local MLP back to the output feature width;
   edge features are discarded.

The same model object runs un-partitioned (``R = 1``) and distributed
(``R > 1``); only the ``graph``/``comm``/``halo_mode`` arguments change.
That is the point: consistency means the numbers do not.
"""

from __future__ import annotations

import numpy as np

from repro.comm import HaloMode
from repro.comm.backend import Communicator
from repro.gnn.config import GNNConfig
from repro.gnn.message_passing import ConsistentNMPLayer
from repro.graph.distributed import LocalGraph
from repro.nn import MLP, Module
from repro.nn.module import ModuleList
from repro.tensor import Tensor, astensor
from repro.tensor.fused import fused_forward_enabled, fused_mlp
from repro.tensor.workspace import arena_recycle


class MeshGNN(Module):
    """Distributed mesh-based GNN with consistent message passing.

    >>> from repro.gnn import SMALL_CONFIG
    >>> model = MeshGNN(SMALL_CONFIG)
    >>> model.num_parameters()
    3979
    """

    def __init__(self, config: GNNConfig):
        super().__init__()
        self.config = config
        h, nh, seed = config.hidden, config.n_mlp_hidden, config.seed
        self.node_encoder = MLP(
            config.node_in, h, h, nh, final_norm=True, seed=seed, name="enc.node"
        )
        self.edge_encoder = MLP(
            config.edge_in, h, h, nh, final_norm=True, seed=seed, name="enc.edge"
        )
        self.processor = ModuleList(
            ConsistentNMPLayer(
                h, nh, seed=seed, name=f"proc{m}", degree_scaling=config.degree_scaling
            )
            for m in range(config.n_message_passing)
        )
        self.decoder = MLP(h, h, config.node_out, nh, final_norm=False, seed=seed, name="dec")

    def forward(
        self,
        x: Tensor | np.ndarray,
        edge_attr: Tensor | np.ndarray,
        graph: LocalGraph,
        comm: Communicator | None = None,
        halo_mode: HaloMode | str = HaloMode.NONE,
        encoded_edge_attr: np.ndarray | None = None,
    ) -> Tensor:
        """Predict node outputs on (the local part of) the mesh graph.

        Parameters
        ----------
        x:
            ``(n_local, node_in)`` input node features.
        edge_attr:
            ``(n_edges, edge_in)`` input edge features
            (``graph.edge_attr(...)``).
        graph:
            The rank's :class:`LocalGraph` (or the full ``R = 1`` graph).
        comm, halo_mode:
            Distributed context. ``halo_mode=NONE`` with ``R > 1``
            reproduces the paper's inconsistent baseline.
        encoded_edge_attr:
            Already-encoded ``(n_edges, hidden)`` edge features — the
            edge encoder is skipped. Geometric edge features do not
            depend on the state, so their encoding is identical every
            rollout step; the fast stepping loop hoists it out of the
            loop and passes the result here (bitwise-unchanged — the
            same values are simply not recomputed).
        """
        x = astensor(x)
        if x.shape != (graph.n_local, self.config.node_in):
            raise ValueError(
                f"x has shape {x.shape}, expected {(graph.n_local, self.config.node_in)}"
            )
        if encoded_edge_attr is None:
            edge_attr = astensor(edge_attr)
            if edge_attr.shape != (graph.n_edges, self.config.edge_in):
                raise ValueError(
                    f"edge_attr has shape {edge_attr.shape}, expected "
                    f"{(graph.n_edges, self.config.edge_in)}"
                )
        if fused_forward_enabled(graph.plans):
            return Tensor(
                self._forward_fused(
                    x, edge_attr, graph, comm, HaloMode.parse(halo_mode),
                    encoded_edge_attr,
                )
            )
        if encoded_edge_attr is not None:
            e = astensor(encoded_edge_attr)
        else:
            e = self.edge_encoder(edge_attr)
        x = self.node_encoder(x)
        for layer in self.processor:
            x, e = layer(x, e, graph, comm, halo_mode)
        return self.decoder(x)

    def _forward_fused(
        self,
        x: Tensor,
        edge_attr: Tensor,
        graph: LocalGraph,
        comm: Communicator | None,
        halo_mode: HaloMode,
        encoded_edge_attr: np.ndarray | None,
    ) -> np.ndarray:
        """The inference forward: raw arrays through the fused kernels.

        Bit-for-bit the ``Tensor`` chain of :meth:`forward`. Every
        intermediate is an arena buffer recycled here, at the point its
        lifetime ends; the inputs (``x``, ``edge_attr`` — read only
        without a hoisted ``encoded_edge_attr``) stay the caller's, and
        the returned array is the caller's to recycle.
        """
        e = encoded_edge_attr
        if e is None:
            e = fused_mlp(edge_attr.data, self.edge_encoder.kernel())
        h = fused_mlp(x.data, self.node_encoder.kernel())
        for layer in self.processor:
            h_new, e_new = layer._forward_fused(h, e, graph, comm, halo_mode)
            arena_recycle(h)
            if e is not encoded_edge_attr:
                arena_recycle(e)
            h, e = h_new, e_new
        if e is not encoded_edge_attr:
            arena_recycle(e)
        return fused_mlp(h, self.decoder.kernel(), recycle_input=True)


def cast_replica(model: MeshGNN, dtype) -> MeshGNN:
    """A fresh :class:`MeshGNN` whose parameters are ``model``'s cast to
    ``dtype``.

    The float32 inference tier serves from such a replica; the source
    model stays the float64-canonical copy. Parameters are *re-bound*
    (``p.data = cast``) rather than assigned in place — in-place
    assignment would silently cast back to the replica's original
    dtype.
    """
    replica = MeshGNN(model.config)
    own = dict(replica.named_parameters())
    for name, param in model.named_parameters():
        own[name].data = param.data.astype(dtype)
    return replica
