"""Differentiable communication operations.

These are the reproduction's analog of ``torch.distributed.nn``: the
forward pass performs the collective, and the backward pass performs the
*adjoint* collective, so gradients propagate across rank boundaries and
the distributed model satisfies the gradient-consistency requirement
(Eq. 3 of the paper).

Adjoints
--------
* halo exchange (gather rows → ship → halo block): the adjoint ships the
  halo-block gradient back along reversed channels and *accumulates*
  into the originally gathered rows. This mirrors the gather/scatter_add
  adjoint pair of :mod:`repro.tensor.ops`, with the scatter happening on
  a different rank.
* all_reduce_sum: two useful backward conventions exist.
  ``backward="identity"`` treats remote contributions as constants;
  correct (and cheapest) when *every* rank computes the same downstream
  scalar and seeds backward() with 1 — the consistent-loss situation.
  ``backward="all_reduce"`` is the ``torch.distributed.nn.all_reduce``
  convention (all-reduce the gradients); provided for completeness and
  for losses evaluated on one rank only.
"""

from __future__ import annotations

import numpy as np

from repro.comm.backend import Communicator
from repro.comm.modes import ExchangeSpec, HaloMode
from repro.tensor import Tensor
from repro.tensor.aggregation import aggregation_plans_enabled, plan_for
from repro.tensor.tensor import accumulate_parent_grad, collect_parents, is_grad_enabled
from repro.tensor.workspace import arena_out, arena_recycle, pooled_take


def halo_exchange_raw(
    payload: np.ndarray,
    spec: ExchangeSpec,
    comm: Communicator,
    mode: HaloMode,
    tag: int,
) -> np.ndarray:
    """Ship ``payload[send_indices[nbr]]`` to each neighbor; return the
    received rows stacked neighbor-after-neighbor (sorted by rank).

    This is the non-differentiable engine used by both the forward and
    the backward (with a transposed spec) of the halo exchange, and
    called directly — raw arrays in, raw array out — by the fused
    inference forward (the result is an arena buffer the caller
    recycles).
    """
    if spec.size != comm.size:
        raise ValueError(f"spec world size {spec.size} != communicator size {comm.size}")
    n_feat = payload.shape[1] if payload.ndim == 2 else 1
    dtype = payload.dtype
    n_halo = spec.n_halo
    out_shape = (n_halo, n_feat) if payload.ndim == 2 else (n_halo,)
    out = arena_out(out_shape, dtype)
    if out is None:
        out = np.empty(out_shape, dtype=dtype)

    def gather_send(rows: np.ndarray) -> np.ndarray:
        """``payload[rows]``, into a reused workspace slot when available.

        Safe to hand to the collectives: the comm backends copy send
        payloads before the collective completes (threaded ranks copy
        between the two barriers; ``send`` copies at enqueue), so the
        slot is dead before its next reuse one step later. Halo specs
        are built from validated local rows (``pooled_take``'s
        contract).
        """
        if payload.ndim == 2:
            return pooled_take(payload, rows)
        return np.ascontiguousarray(payload[rows])

    if mode is HaloMode.A2A:
        # dense all-to-all with equal (padded) buffer sizes for ALL ranks
        pad = spec.pad_count
        send: list[np.ndarray | None] = []
        for dst in range(spec.size):
            buf = arena_out((pad, n_feat), dtype)
            if buf is None:
                buf = np.zeros((pad, n_feat), dtype=dtype)
            else:
                buf.fill(0.0)
            if dst in spec.send_indices:
                rows = spec.send_indices[dst]
                buf[: len(rows)] = payload[rows]
            send.append(buf)
        recv = comm.all_to_all(send)
        # the collective copies payloads before returning (threaded
        # ranks read between the two barriers), so send buffers are
        # dead here and can be recycled
        for buf in send:
            arena_recycle(buf)
        off = 0
        for nbr in spec.neighbors:
            cnt = spec.recv_counts[nbr]
            out[off : off + cnt] = recv[nbr][:cnt]
            off += cnt
    elif mode is HaloMode.NEIGHBOR_A2A:
        # same collective, but empty buffers for non-neighbors
        empty = np.empty((0, n_feat), dtype=dtype)
        send = [empty] * spec.size
        for nbr in spec.neighbors:
            send[nbr] = gather_send(spec.send_indices[nbr])
        recv = comm.all_to_all(send)
        for nbr in spec.neighbors:  # dead after the collective (copied)
            arena_recycle(send[nbr])
        off = 0
        for nbr in spec.neighbors:
            cnt = spec.recv_counts[nbr]
            out[off : off + cnt] = recv[nbr]
            off += cnt
    elif mode is HaloMode.SEND_RECV:
        # explicit nonblocking-style point-to-point between neighbors
        for nbr in spec.neighbors:
            buf = gather_send(spec.send_indices[nbr])
            comm.send(buf, dest=nbr, tag=tag)  # send() copies at enqueue
            arena_recycle(buf)
        off = 0
        for nbr in spec.neighbors:
            cnt = spec.recv_counts[nbr]
            out[off : off + cnt] = comm.recv(source=nbr, tag=tag)
            off += cnt
    else:
        raise ValueError(f"no exchange engine for mode {mode}")
    return out


def halo_exchange_tensor(
    x: Tensor,
    spec: ExchangeSpec,
    comm: Communicator,
    mode: HaloMode | str = HaloMode.NEIGHBOR_A2A,
) -> Tensor:
    """Differentiable halo exchange (Eq. 4c of the paper).

    Parameters
    ----------
    x:
        ``(N_local, F)`` tensor of per-node values (in the consistent NMP
        layer: the local edge aggregates).
    spec:
        The rank's :class:`ExchangeSpec` (from the halo plan).
    mode:
        ``A2A``, ``NEIGHBOR_A2A``, or ``SEND_RECV`` (``NONE`` must be
        short-circuited by the caller — there is nothing to exchange).

    Returns
    -------
    Tensor
        ``(N_halo, F)`` halo block: rows received from neighbors, stacked
        in sorted-neighbor order (matching ``spec.recv_counts``).
    """
    mode = HaloMode.parse(mode)
    if mode is HaloMode.NONE:
        raise ValueError("halo_exchange_tensor called with mode NONE")

    out_data = halo_exchange_raw(x.data, spec, comm, mode, tag=0)
    if not is_grad_enabled():
        return Tensor(out_data)
    parents = collect_parents(x)
    tspec = spec.transpose()

    def backward(g):
        # ship halo-block gradients back along reversed channels
        returned = halo_exchange_raw(np.ascontiguousarray(g), tspec, comm, mode, tag=1)
        if x._needs_graph():
            # the returned rows are stacked neighbor-after-neighbor —
            # exactly the order of spec.send_rows — so the per-neighbor
            # np.add.at loop collapses to one planned segment scatter
            # (bitwise identical; see repro.tensor.aggregation)
            rows = spec.send_rows
            if aggregation_plans_enabled() and returned.dtype == x.data.dtype:
                grad = plan_for(rows, x.data.shape[0]).scatter_add(returned)
            else:
                grad = np.zeros_like(x.data)
                np.add.at(grad, rows, returned)
            accumulate_parent_grad(x, grad)

    return Tensor(out_data, parents=parents, backward_fn=backward, name="halo_exchange")


def all_reduce_sum_tensor(
    x: Tensor,
    comm: Communicator,
    backward: str = "identity",
) -> Tensor:
    """Differentiable all-reduce (sum) of a tensor across ranks.

    ``backward="identity"`` passes the upstream gradient straight to the
    local contribution. When all ranks evaluate the same downstream
    scalar and all call ``backward()`` (the consistent-loss pattern,
    Eq. 6), this yields exactly the local partial derivative on each
    rank; the DDP gradient sum then assembles the global gradient.

    ``backward="all_reduce"`` all-reduces the incoming gradient
    (``torch.distributed.nn`` convention) — appropriate when only one
    rank consumes the output.
    """
    if backward not in ("identity", "all_reduce"):
        raise ValueError("backward must be 'identity' or 'all_reduce'")
    out_data = comm.all_reduce_sum(x.data)
    if not is_grad_enabled():
        return Tensor(out_data)
    parents = collect_parents(x)

    def backward_fn(g):
        if backward == "all_reduce":
            g = comm.all_reduce_sum(np.ascontiguousarray(g))
        if x._needs_graph():
            accumulate_parent_grad(x, g)

    return Tensor(out_data, parents=parents, backward_fn=backward_fn, name="all_reduce")
