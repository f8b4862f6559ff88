"""Consistent distributed GNN — the paper's primary contribution.

* :mod:`repro.gnn.config` — model settings, including the exact
  "small" and "large" configurations of Table I;
* :mod:`repro.gnn.message_passing` — the consistent neural message
  passing layer (Eq. 4): edge update, degree-scaled local aggregation,
  differentiable halo swap, synchronization, node update;
* :mod:`repro.gnn.architecture` — encode-process-decode GNN;
* :mod:`repro.gnn.loss` — the consistent MSE loss (Eq. 6);
* :mod:`repro.gnn.ddp` — distributed data parallel gradient
  synchronization;
* :mod:`repro.gnn.trainer` — a training loop driving all of the above.
"""

from repro.gnn.config import GNNConfig, SMALL_CONFIG, LARGE_CONFIG
from repro.gnn.message_passing import ConsistentNMPLayer
from repro.gnn.architecture import MeshGNN
from repro.gnn.loss import consistent_mse_loss, local_mse_loss
from repro.gnn.ddp import DistributedDataParallel
from repro.gnn.trainer import (
    TrainResult,
    train_distributed,
    train_model,
    train_single,
)
from repro.gnn.rollout import rollout, rollout_error
from repro.gnn.checkpoint import load_checkpoint, save_checkpoint
from repro.gnn.normalization import DistributedStandardScaler

__all__ = [
    "GNNConfig",
    "SMALL_CONFIG",
    "LARGE_CONFIG",
    "ConsistentNMPLayer",
    "MeshGNN",
    "consistent_mse_loss",
    "local_mse_loss",
    "DistributedDataParallel",
    "TrainResult",
    "train_distributed",
    "train_model",
    "train_single",
    "rollout",
    "rollout_error",
    "load_checkpoint",
    "save_checkpoint",
    "DistributedStandardScaler",
]
