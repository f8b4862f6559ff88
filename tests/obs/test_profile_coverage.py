"""The hot-loop profile adds up: named kernels cover the model forward.

``benchmarks/e2e/ledger.py`` reports ``gnn.profile_named_share`` — the
sum of every profiled name outside ``rollout.*`` over
``rollout.model_forward``. The laps inside the fused forward are laid
end to end and never nested, so on the ``rollout_r1`` shape that share
is a floor (>= 0.90: optimisation follows a table that accounts for the
time) and can never pass 1 (a nested or double-counted lap would).
"""

import pytest

from repro.comm import ThreadWorld
from repro.gnn import GNNConfig, MeshGNN, rollout
from repro.graph import build_distributed_graph, build_full_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.obs.profile import HotLoopProfiler, install_profiler, uninstall_profiler

N_STEPS = 4
#: every block of the fused forward; the last three need a partitioned graph
KERNEL_NAMES = {
    "fused_gemm", "fused.bias", "fused.elu", "fused.layer_norm",
    "fused.gather_concat", "fused.residual", "plan.scatter_add",
}
PARTITIONED_ONLY = {"fused.degree_scale", "halo.exchange", "halo.sync"}


@pytest.fixture(autouse=True)
def no_leaked_profiler():
    uninstall_profiler()
    yield
    uninstall_profiler()


@pytest.fixture(scope="module")
def mesh():
    return BoxMesh(5, 5, 4, p=2)


@pytest.fixture(scope="module")
def model():
    return MeshGNN(GNNConfig(hidden=32, n_message_passing=4, n_mlp_hidden=2, seed=1))


def run_rollout(mesh, model, ranks):
    x0 = taylor_green_velocity(mesh.all_positions())
    if ranks == 1:
        return rollout(model, build_full_graph(mesh), x0, N_STEPS)
    dgraph = build_distributed_graph(mesh, auto_partition(mesh, ranks))

    def program(comm):
        graph = dgraph.local(comm.rank)
        return rollout(model, graph, x0[graph.global_ids], N_STEPS, comm, "n-a2a")

    return ThreadWorld(ranks).run(program)


@pytest.mark.parametrize("ranks", [1, 2])
def test_named_kernels_cover_the_model_forward(mesh, model, ranks):
    profiler = install_profiler()
    try:
        run_rollout(mesh, model, ranks)
    finally:
        uninstall_profiler()
    snap = profiler.snapshot()
    assert snap["rollout.model_forward"]["calls"] == ranks * N_STEPS
    kernels = {name for name in snap if not name.startswith("rollout.")}
    assert kernels == KERNEL_NAMES | (PARTITIONED_ONLY if ranks > 1 else set())
    assert all(snap[name]["calls"] > 0 for name in kernels)
    named = sum(snap[name]["total_s"] for name in kernels)
    share = named / snap["rollout.model_forward"]["total_s"]
    assert 0.90 <= share <= 1.0, snap


def test_profiler_off_records_nothing(mesh, model, monkeypatch):
    calls = []
    monkeypatch.setattr(HotLoopProfiler, "add", lambda self, name, dt: calls.append(name))
    run_rollout(mesh, model, 2)
    assert calls == []
