"""Training-phase consistency (Fig. 6 right): the distributed consistent
run recovers the R = 1 optimization trajectory; the inconsistent run
drifts."""

import numpy as np
import pytest

from repro.comm import HaloMode, ThreadWorld
from repro.gnn import train_distributed, train_single
from repro.graph import build_distributed_graph, build_full_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity

from tests.gnn.conftest import TINY_CONFIG


MESH = BoxMesh(4, 2, 2, p=1)
ITERS = 6


@pytest.fixture(scope="module")
def r1_result():
    g = build_full_graph(MESH)
    x = taylor_green_velocity(g.pos)
    return train_single(TINY_CONFIG, g, x, x, iterations=ITERS, lr=1e-3)


def run_distributed(size, halo_mode, grad_reduction="all_reduce", iters=ITERS):
    part = auto_partition(MESH, size)
    dg = build_distributed_graph(MESH, part)

    def prog(comm):
        g = dg.local(comm.rank)
        x = taylor_green_velocity(g.pos)
        return train_distributed(
            comm, TINY_CONFIG, g, x, x,
            halo_mode=halo_mode, iterations=iters, lr=1e-3,
            grad_reduction=grad_reduction,
        )

    return ThreadWorld(size).run(prog)


class TestTrainingConsistency:
    def test_consistent_r4_recovers_r1_losses(self, r1_result):
        results = run_distributed(4, HaloMode.NEIGHBOR_A2A)
        for res in results:
            np.testing.assert_allclose(res.losses, r1_result.losses, rtol=1e-7)

    def test_consistent_r4_recovers_r1_parameters(self, r1_result):
        """After training, the distributed replicas equal the R=1 model."""
        results = run_distributed(4, HaloMode.NEIGHBOR_A2A)
        for name, ref in r1_result.state_dict.items():
            np.testing.assert_allclose(
                results[0].state_dict[name], ref, rtol=1e-6, atol=1e-10, err_msg=name
            )

    def test_sum_reduction_also_consistent(self, r1_result):
        results = run_distributed(2, HaloMode.NEIGHBOR_A2A, grad_reduction="sum")
        np.testing.assert_allclose(results[0].losses, r1_result.losses, rtol=1e-7)

    def test_inconsistent_training_deviates(self, r1_result):
        results = run_distributed(4, HaloMode.NONE)
        diffs = np.abs(np.array(results[0].losses) - np.array(r1_result.losses))
        assert diffs.max() > 1e-9

    def test_losses_identical_across_ranks(self):
        results = run_distributed(4, HaloMode.NEIGHBOR_A2A, iters=3)
        for res in results[1:]:
            assert res.losses == results[0].losses

    def test_replicas_stay_identical(self):
        results = run_distributed(2, HaloMode.NEIGHBOR_A2A, iters=3)
        for name, ref in results[0].state_dict.items():
            np.testing.assert_array_equal(results[1].state_dict[name], ref)

    def test_loss_decreases(self, r1_result):
        assert r1_result.losses[-1] < r1_result.losses[0]
