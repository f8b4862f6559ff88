"""Gather–scatter (direct stiffness summation) over coincident nodes.

In element-based solvers, operators are evaluated element-locally and
the results summed over all copies of each shared node — NekRS calls
this ``gs``/``dssum``. On the *reduced* distributed graph, local copies
are already collapsed, so only the cross-rank sum remains: exchange
boundary values with neighbor ranks and accumulate. That is precisely
the halo swap + synchronization (Eqs. 4c–4d) of the consistent NMP
layer, applied to plain arrays — this module shares the
:class:`~repro.graph.halo.HaloPlan` machinery with the GNN, mirroring
how the paper derives its GNN communication from the solver's.
"""

from __future__ import annotations

import numpy as np

from repro.comm.autograd_ops import halo_exchange_raw
from repro.comm.backend import Communicator
from repro.comm.modes import HaloMode
from repro.graph.distributed import LocalGraph


def dssum(
    values: np.ndarray,
    graph: LocalGraph,
    comm: Communicator | None = None,
    mode: HaloMode | str = HaloMode.NEIGHBOR_A2A,
) -> np.ndarray:
    """Sum ``values`` over all rank-copies of each global node.

    Parameters
    ----------
    values:
        ``(n_local,)`` or ``(n_local, F)`` per-node partial values.
    graph:
        The rank's :class:`LocalGraph`; supplies the halo plan.
    comm:
        Required when ``graph.size > 1``.

    Returns
    -------
    ndarray
        Same shape as ``values``; every copy of a shared node holds the
        identical total after the call.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != graph.n_local:
        raise ValueError(f"values rows {values.shape[0]} != local nodes {graph.n_local}")
    if graph.size == 1:
        return values.copy()
    if comm is None:
        raise ValueError("dssum on a partitioned graph requires a communicator")
    mode = HaloMode.parse(mode)
    squeeze = values.ndim == 1
    payload = values[:, None] if squeeze else values
    halo = halo_exchange_raw(np.ascontiguousarray(payload), graph.halo.spec, comm, mode, tag=7)
    out = payload.copy()
    np.add.at(out, graph.halo.halo_to_local, halo)
    return out[:, 0] if squeeze else out


def dsavg(
    values: np.ndarray,
    graph: LocalGraph,
    comm: Communicator | None = None,
    mode: HaloMode | str = HaloMode.NEIGHBOR_A2A,
) -> np.ndarray:
    """Degree-weighted average over copies: ``dssum(values) / d_i``.

    Solvers use this to make redundantly-stored fields consistent after
    element-local operations (each copy ends up with the mean of all
    copies).
    """
    summed = dssum(values, graph, comm, mode)
    deg = graph.node_degree
    return summed / (deg[:, None] if summed.ndim == 2 else deg)
