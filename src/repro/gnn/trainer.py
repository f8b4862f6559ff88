"""Training loops: single-rank target and distributed data parallel.

These drive the Fig. 6 (right) experiment: the distributed consistent
run recovers the un-partitioned optimization trajectory exactly, while
the inconsistent (no-halo-exchange) run drifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm import HaloMode
from repro.comm.backend import Communicator
from repro.comm.single import SingleProcessComm
from repro.gnn.architecture import MeshGNN
from repro.gnn.config import GNNConfig
from repro.gnn.ddp import DistributedDataParallel
from repro.gnn.loss import consistent_mse_loss
from repro.graph.distributed import LocalGraph
from repro.nn import Adam
from repro.tensor import Tensor


@dataclass
class TrainResult:
    """Loss history plus the final parameter state of one training run."""

    losses: list = field(default_factory=list)
    state_dict: dict = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def train_model(
    model: MeshGNN,
    graph: LocalGraph,
    x: np.ndarray,
    target: np.ndarray,
    comm: Communicator,
    halo_mode: HaloMode | str = HaloMode.NEIGHBOR_A2A,
    iterations: int = 10,
    lr: float = 1e-3,
    grad_reduction: str = "all_reduce",
) -> TrainResult:
    """Fine-tune an *existing* model on one (input, target) pair.

    The shared core of :func:`train_single` / :func:`train_distributed`
    and of the serving layer's training jobs
    (:func:`repro.serve.executor.execute_train_job`): Adam over the
    consistent MSE loss, gradients DDP-synced through ``comm``. The
    caller owns model construction — ranks of a distributed run must
    pass bit-identical replicas (and receive bit-identical results).

    Thread safety: mutates ``model`` (parameters and gradients) — one
    training run owns its model; the graph and inputs are only read.
    Determinism: given identical model bits, inputs, and comm world,
    the loss history and final parameters are exact — partition count
    never changes them (the paper's Fig. 6 claim).
    """
    halo_mode = HaloMode.parse(halo_mode)
    ddp = DistributedDataParallel(
        model, comm, reduction="average" if grad_reduction == "all_reduce" else "sum"
    )
    opt = Adam(model.parameters(), lr=lr)
    edge_attr = graph.edge_attr(node_features=x, kind=model.config.edge_features)
    xt, yt = Tensor(x), Tensor(target)
    result = TrainResult()
    for _ in range(iterations):
        opt.zero_grad()
        pred = ddp(xt, edge_attr, graph, comm, halo_mode)
        loss = consistent_mse_loss(pred, yt, graph, comm, grad_reduction=grad_reduction)
        loss.backward()
        ddp.sync_gradients()
        opt.step()
        result.losses.append(loss.item())
    result.state_dict = model.state_dict()
    return result


def train_single(
    config: GNNConfig,
    graph: LocalGraph,
    x: np.ndarray,
    target: np.ndarray,
    iterations: int = 10,
    lr: float = 1e-3,
) -> TrainResult:
    """Train on the un-partitioned ``R = 1`` graph (the paper's target)."""
    model = MeshGNN(config)
    return train_model(
        model,
        graph,
        x,
        target,
        SingleProcessComm(),
        HaloMode.NONE,  # irrelevant at R = 1; layer short-circuits
        iterations,
        lr,
        grad_reduction="all_reduce",
    )


def train_distributed(
    comm: Communicator,
    config: GNNConfig,
    graph: LocalGraph,
    x: np.ndarray,
    target: np.ndarray,
    halo_mode: HaloMode | str = HaloMode.NEIGHBOR_A2A,
    iterations: int = 10,
    lr: float = 1e-3,
    grad_reduction: str = "all_reduce",
) -> TrainResult:
    """One rank's share of a distributed training run.

    Run under :meth:`repro.comm.ThreadWorld.run`; every rank constructs
    the same model (rank-independent seeds) and trains on its local
    sub-graph with the requested halo mode.
    """
    model = MeshGNN(config)
    return train_model(
        model, graph, x, target, comm, halo_mode, iterations, lr,
        grad_reduction,
    )
