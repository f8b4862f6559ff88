"""The paper's central claims: Eq. 2 (output consistency) and Eq. 3
(gradient consistency) of the consistent NMP formulation."""

import numpy as np
import pytest

from repro.comm import HaloMode, ThreadWorld
from repro.gnn import MeshGNN, consistent_mse_loss
from repro.graph import build_distributed_graph, build_full_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.tensor import Tensor

from tests.gnn.conftest import TINY_CONFIG, distributed_forward, full_reference_output


MESH = BoxMesh(4, 4, 2, p=1)
EXCHANGING_MODES = [HaloMode.A2A, HaloMode.NEIGHBOR_A2A, HaloMode.SEND_RECV]


class TestForwardConsistency:
    """Eq. 2: distributed outputs equal the un-partitioned outputs."""

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_consistent_matches_r1(self, size):
        ref = full_reference_output(MESH, TINY_CONFIG)
        out = distributed_forward(MESH, size, TINY_CONFIG, HaloMode.NEIGHBOR_A2A)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize(
        "mode", [HaloMode.A2A, HaloMode.SEND_RECV], ids=lambda m: m.value
    )
    def test_all_exchange_modes_equivalent(self, mode, size):
        ref = full_reference_output(MESH, TINY_CONFIG)
        out = distributed_forward(MESH, size, TINY_CONFIG, mode)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    def test_standard_nmp_is_inconsistent(self):
        """Without halo exchanges the outputs must deviate (the paper's
        inconsistent baseline)."""
        ref = full_reference_output(MESH, TINY_CONFIG)
        out = distributed_forward(MESH, 4, TINY_CONFIG, HaloMode.NONE)
        assert np.max(np.abs(out - ref)) > 1e-6

    @pytest.mark.parametrize("partitioner", ["slab-x", "slab-y", "morton"])
    def test_consistency_invariant_to_partitioner(self, partitioner):
        """Eq. 2 holds for any partition shape (slab vs morton)."""
        from repro.mesh import MortonPartitioner, SlabPartitioner
        from repro.tensor import no_grad

        ref = full_reference_output(MESH, TINY_CONFIG)
        partitioner = {
            "slab-x": SlabPartitioner(axis=0),
            "slab-y": SlabPartitioner(axis=1),
            "morton": MortonPartitioner(),
        }[partitioner]
        dg = build_distributed_graph(MESH, partitioner.partition(MESH, 4))

        def prog(comm):
            g = dg.local(comm.rank)
            x = taylor_green_velocity(g.pos)
            model = MeshGNN(TINY_CONFIG)
            with no_grad():
                return model(
                    x, g.edge_attr(node_features=x), g, comm, HaloMode.NEIGHBOR_A2A
                ).data

        out = dg.assemble_global(ThreadWorld(4).run(prog))
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", EXCHANGING_MODES, ids=lambda m: m.value)
    def test_p2_mesh_consistency(self, mode):
        mesh = BoxMesh(2, 2, 2, p=2)
        ref = full_reference_output(mesh, TINY_CONFIG)
        out = distributed_forward(mesh, 8, TINY_CONFIG, mode)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


class TestLossConsistency:
    """Eq. 2 applied to the scalar loss (Fig. 6 left, per-R values)."""

    def _r1_loss(self, mesh):
        g = build_full_graph(mesh)
        x = taylor_green_velocity(g.pos)
        model = MeshGNN(TINY_CONFIG)
        from repro.comm.single import SingleProcessComm

        pred = model(x, g.edge_attr(node_features=x), g)
        return consistent_mse_loss(pred, Tensor(x), g, SingleProcessComm()).item()

    def _distributed_loss(self, mesh, size, halo_mode):
        part = auto_partition(mesh, size)
        dg = build_distributed_graph(mesh, part)

        def prog(comm):
            g = dg.local(comm.rank)
            x = taylor_green_velocity(g.pos)
            model = MeshGNN(TINY_CONFIG)
            pred = model(x, g.edge_attr(node_features=x), g, comm, halo_mode)
            return consistent_mse_loss(pred, Tensor(x), g, comm).item()

        return ThreadWorld(size).run(prog)

    @pytest.mark.parametrize("size", [2, 4, 8])
    @pytest.mark.parametrize("mode", EXCHANGING_MODES, ids=lambda m: m.value)
    def test_loss_invariant_to_rank_count(self, mode, size):
        ref = self._r1_loss(MESH)
        losses = self._distributed_loss(MESH, size, mode)
        for l in losses:
            assert abs(l - ref) < 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("mode", EXCHANGING_MODES, ids=lambda m: m.value)
    def test_loss_identical_on_all_ranks(self, mode):
        losses = self._distributed_loss(MESH, 4, mode)
        assert len(set(losses)) == 1

    def test_standard_nmp_loss_deviates_increasingly_with_r(self):
        """Fig. 6 (left): inconsistent loss error grows with R."""
        ref = self._r1_loss(MESH)
        errs = []
        for size in (2, 4, 8):
            losses = self._distributed_loss(MESH, size, HaloMode.NONE)
            errs.append(abs(losses[0] - ref))
        assert errs[0] > 1e-10  # deviates at all
        assert errs[2] > errs[0]  # grows with more partitions


class TestGradientConsistency:
    """Eq. 3: parameter gradients invariant to the partitioning."""

    def _r1_grads(self, mesh, grad_reduction="all_reduce"):
        from repro.comm.single import SingleProcessComm

        g = build_full_graph(mesh)
        x = taylor_green_velocity(g.pos)
        model = MeshGNN(TINY_CONFIG)
        pred = model(x, g.edge_attr(node_features=x), g)
        loss = consistent_mse_loss(
            pred, Tensor(x), g, SingleProcessComm(), grad_reduction=grad_reduction
        )
        loss.backward()
        return {name: p.grad.copy() for name, p in model.named_parameters()}

    def _distributed_grads(self, mesh, size, halo_mode, grad_reduction):
        from repro.gnn.ddp import DistributedDataParallel

        part = auto_partition(mesh, size)
        dg = build_distributed_graph(mesh, part)

        def prog(comm):
            g = dg.local(comm.rank)
            x = taylor_green_velocity(g.pos)
            model = MeshGNN(TINY_CONFIG)
            ddp = DistributedDataParallel(
                model,
                comm,
                reduction="average" if grad_reduction == "all_reduce" else "sum",
            )
            pred = ddp(x, g.edge_attr(node_features=x), g, comm, halo_mode)
            loss = consistent_mse_loss(
                pred, Tensor(x), g, comm, grad_reduction=grad_reduction
            )
            loss.backward()
            ddp.sync_gradients()
            return {name: p.grad.copy() for name, p in model.named_parameters()}

        return ThreadWorld(size).run(prog)

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("grad_reduction", ["all_reduce", "sum"])
    @pytest.mark.parametrize("mode", EXCHANGING_MODES, ids=lambda m: m.value)
    def test_gradients_match_r1(self, mode, size, grad_reduction):
        ref = self._r1_grads(MESH, grad_reduction)
        per_rank = self._distributed_grads(MESH, size, mode, grad_reduction)
        for grads in per_rank:
            assert set(grads) == set(ref)
            for name in ref:
                np.testing.assert_allclose(
                    grads[name], ref[name], rtol=1e-8, atol=1e-12, err_msg=name
                )

    @pytest.mark.parametrize("mode", EXCHANGING_MODES, ids=lambda m: m.value)
    def test_gradients_identical_across_ranks_after_sync(self, mode):
        per_rank = self._distributed_grads(MESH, 4, mode, "all_reduce")
        for grads in per_rank[1:]:
            for name in per_rank[0]:
                np.testing.assert_array_equal(grads[name], per_rank[0][name])

    def test_standard_nmp_gradients_deviate(self):
        ref = self._r1_grads(MESH)
        per_rank = self._distributed_grads(MESH, 4, HaloMode.NONE, "all_reduce")
        max_err = max(
            np.max(np.abs(per_rank[0][name] - ref[name])) for name in ref
        )
        assert max_err > 1e-8
