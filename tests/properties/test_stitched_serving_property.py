"""Served ≡ direct, bit for bit, for generated worlds.

The executor steps a multi-rank asset as ONE stitched graph on the
worker's thread (:func:`repro.serve.tiling.stitch_rank_graphs`). The
property: for random box meshes cut by every partitioner in
:mod:`repro.mesh.partition` into 2-8 ranks, under every halo mode, at
batch sizes 1-4, in float64 and float32, with geometric and full edge
features, residual or direct updates, every served frame equals the
frame a :class:`~repro.comm.threaded.ThreadWorld` of per-rank direct
rollouts assembles the executor's way (rank order, a later rank's copy
of a shared node overwrites an earlier one's) — bitwise. Rank pairs
with nothing to exchange arise from slabs of three or more ranks; mode
``none`` exchanges nothing at all.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.comm import HaloMode, ThreadWorld
from repro.gnn import GNNConfig, MeshGNN
from repro.gnn.rollout import rollout, workspace_steps
from repro.graph import EDGE_FEATURES_FULL, EDGE_FEATURES_GEOMETRIC
from repro.graph import build_distributed_graph
from repro.mesh import BoxMesh
from repro.mesh.partition import (
    GridPartitioner,
    MortonPartitioner,
    PencilPartitioner,
    RandomPartitioner,
    SlabPartitioner,
)
from repro.runtime.api import RolloutRequest
from repro.serve.cache import GraphAsset
from repro.serve.executor import execute_batch, float32_replica

PARTITIONERS = {
    "slab": lambda seed: SlabPartitioner(axis=seed % 3),
    "pencil": lambda seed: PencilPartitioner(axis=seed % 3),
    "grid": lambda seed: GridPartitioner(),
    "morton": lambda seed: MortonPartitioner(),
    "random": lambda seed: RandomPartitioner(seed=seed),
}


def direct_frames(model, dg, x0s, n_steps, halo_mode, residual, f32):
    """Per-request frames of per-rank direct rollouts, assembled in rank
    order (a later rank's copy overwrites an earlier one's)."""

    def program(comm):
        g = dg.local(comm.rank)
        if not f32:
            return [
                rollout(model, g, x0[g.global_ids], n_steps, comm, halo_mode,
                        residual)
                for x0 in x0s
            ]
        # the float32 tier: rollout()'s own loop on the cast replica
        runs = []
        for x0 in x0s:
            x = x0[g.global_ids].astype(np.float32)
            states = [x]
            workspace_steps(
                float32_replica(model), g, x, n_steps, comm, halo_mode,
                residual, lambda step, s: states.append(np.array(s, copy=True)),
            )
            runs.append(states)
        return runs

    per_rank = ThreadWorld(dg.size, timeout=30.0).run(program)
    frames = []
    for k, x0 in enumerate(x0s):
        steps = []
        for step in range(n_steps + 1):
            out = np.empty_like(per_rank[0][k][step], shape=x0.shape)
            for g, runs in zip(dg.locals, per_rank):
                out[g.global_ids] = runs[k][step]
            steps.append(out)
        frames.append(steps)
    return frames


@settings(
    max_examples=200, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
    p=st.integers(1, 2),
    partitioner=st.sampled_from(sorted(PARTITIONERS)),
    size=st.integers(2, 8),
    halo_mode=st.sampled_from([m.value for m in HaloMode]),
    batch=st.integers(1, 4),
    f32=st.booleans(),
    edge_features=st.sampled_from(
        [EDGE_FEATURES_GEOMETRIC, EDGE_FEATURES_FULL]
    ),
    residual=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_served_frames_are_the_rank_world_frames(
    dims, p, partitioner, size, halo_mode, batch, f32, edge_features,
    residual, seed,
):
    mesh = BoxMesh(*dims, p=p)
    assume(size <= mesh.n_elements)
    try:
        part = PARTITIONERS[partitioner](seed).partition(mesh, size)
    except ValueError:  # this partitioner cannot cut this mesh that way
        assume(False)
    dg = build_distributed_graph(mesh, part)
    config = GNNConfig(hidden=4, n_message_passing=2, n_mlp_hidden=1,
                       edge_features=edge_features, seed=seed)
    model = MeshGNN(config)
    rng = np.random.default_rng(seed)
    x0s = [rng.standard_normal((mesh.n_unique_nodes, 3)) for _ in range(batch)]
    n_steps = [1 + (seed + k) % 2 for k in range(batch)]

    served = [[] for _ in range(batch)]
    execution = execute_batch(
        model,
        GraphAsset(key="g", graphs=tuple(dg.locals)),
        [
            RolloutRequest("m", "g", x0, n, halo_mode=halo_mode,
                           residual=residual,
                           precision="float32" if f32 else "float64")
            for x0, n in zip(x0s, n_steps)
        ],
        lambda i, step, state: served[i].append(np.array(state, copy=True)),
    )
    assert execution.world_size == size

    expected = direct_frames(model, dg, x0s, max(n_steps), halo_mode,
                             residual, f32)
    for k in range(batch):
        assert len(served[k]) == n_steps[k] + 1
        for step, (got, want) in enumerate(zip(served[k], expected[k])):
            assert got.dtype == (np.float32 if f32 else np.float64)
            # bitwise: equal bytes, so -0.0 vs +0.0 and NaN payloads count
            assert got.tobytes() == want.astype(got.dtype).tobytes(), (
                f"request {k} step {step}"
            )


@pytest.mark.parametrize("size", [2, 4, 8])
def test_stitched_graph_is_the_ranks_end_to_end(size):
    """The stitched graph is the ranks end to end: their rows, edges
    and degrees in rank order, one self-channel whose gather fills
    exactly the halo rows the rank world receives."""
    from repro.serve.tiling import stitch_rank_graphs

    mesh = BoxMesh(2, 2, 2, p=1)
    dg = build_distributed_graph(mesh, MortonPartitioner().partition(mesh, size))
    stitched = stitch_rank_graphs(dg.locals)
    assert stitched.size == size and stitched.halo.spec.size == 1
    assert stitched.n_local == sum(g.n_local for g in dg.locals)
    assert stitched.n_edges == sum(g.n_edges for g in dg.locals)
    assert stitched.n_halo == sum(g.n_halo for g in dg.locals)
    np.testing.assert_array_equal(
        stitched.edge_degree, np.concatenate([g.edge_degree for g in dg.locals])
    )
    stitched.validate()
    # every halo row gathers the same global node it accumulates into
    gid = np.concatenate([g.global_ids for g in dg.locals])
    spec = stitched.halo.spec
    np.testing.assert_array_equal(
        gid[spec.send_indices[0]], gid[stitched.halo.halo_to_local]
    )
