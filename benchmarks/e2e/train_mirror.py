"""``train_model``'s loop rebuilt from public pieces, one clock per phase.

``repro.gnn.trainer.train_model`` is one opaque call; the per-layer
ledger needs forward / loss / backward / gradient sync / optimizer step
apart. This rank program is that loop line for line (same model
construction, same DDP reduction, same Adam defaults), and
``TrainR2.setup`` asserts it reproduces ``train_distributed``'s losses
exactly before any number taken from it is trusted.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from repro.comm import HaloMode, ThreadWorld
from repro.gnn import DistributedDataParallel, MeshGNN, consistent_mse_loss
from repro.nn import Adam
from repro.tensor import Tensor

PHASES = ("forward", "loss", "backward", "grad_sync", "adam_step")
_LAYER = {"forward": "gnn", "loss": "gnn", "backward": "gnn", "grad_sync": "gnn", "adam_step": "nn"}


def mirrored_training(workload, rec, iterations: int, halo_mode: str = "n-a2a",
                      check_replicas: bool = False) -> list:
    """Run the job on ``ThreadWorld(2)``; per rank a namespace with ``losses`` and
    ``state_dict`` (as ``TrainResult`` has them) plus ``phases_s`` and
    ``iteration_s`` (phase and whole-iteration seconds, summed over iterations)."""
    parent = rec.current()
    mode = HaloMode.parse(halo_mode)

    def program(comm):
        graph, x, y = workload.rank_inputs[comm.rank]
        model = MeshGNN(workload.config)
        ddp = DistributedDataParallel(model, comm, reduction="average")
        opt = Adam(model.parameters(), lr=1e-3)
        edge_attr = graph.edge_attr(node_features=x, kind=model.config.edge_features)
        xt, yt = Tensor(x), Tensor(y)
        losses, phases, iteration_s = [], dict.fromkeys(PHASES, 0.0), 0.0

        def timed(phase, fn):
            with rec.span(f"{_LAYER[phase]}.{phase}.rank{comm.rank}", _LAYER[phase], parent=parent):
                t0 = time.perf_counter()
                out = fn()
                phases[phase] += time.perf_counter() - t0
            return out

        for _ in range(iterations):
            t_iter = time.perf_counter()
            opt.zero_grad()
            pred = timed("forward", lambda: ddp(xt, edge_attr, graph, comm, mode))
            loss = timed("loss", lambda: consistent_mse_loss(pred, yt, graph, comm))
            timed("backward", loss.backward)
            timed("grad_sync", ddp.sync_gradients)
            timed("adam_step", opt.step)
            losses.append(loss.item())
            iteration_s += time.perf_counter() - t_iter
        if check_replicas:
            ddp.assert_replicas_identical()
        return SimpleNamespace(losses=losses, state_dict=model.state_dict(), phases_s=phases,
                               iteration_s=iteration_s)

    return ThreadWorld(2).run(program)
