"""Serving must not perturb the numbers.

A served trajectory — even one coalesced into a batch with other
requests — must be *bitwise identical* to the reference
:func:`repro.gnn.rollout.rollout` on the same (model, graph, x0) — the
``Tensor`` op chain with ``np.add.at`` scatters (``workspace=False``
under ``naive_aggregation()``), not the fused path the server itself
runs — in both single-rank and 4-rank threaded modes. This is the serving
analog of the paper's consistency property: the execution strategy
(batched / distributed / sequential) must be invisible in the output.
"""

import threading

import numpy as np

from repro.comm import HaloMode, ThreadWorld
from repro.gnn import rollout
from repro.runtime.api import RolloutRequest
from repro.serve import InferenceService, ServeConfig
from repro.tensor import naive_aggregation

N_STEPS = 3


def perturbed_states(x0, count, scale=1e-3):
    """Deterministic family of distinct initial states for batching."""
    rng = np.random.default_rng(11)
    return [x0 + scale * rng.standard_normal(x0.shape) for _ in range(count)]


def reference_rollout(*args, **kwargs):
    """The reference rollout: every served bit is compared against it."""
    with naive_aggregation():
        return rollout(*args, workspace=False, **kwargs)


def direct_distributed_rollout(model, dg, x0, n_steps, residual=False):
    """Hand-wired R>1 rollout, assembled to global order per step."""

    def prog(comm):
        g = dg.local(comm.rank)
        return reference_rollout(
            model, g, x0[g.global_ids], n_steps=n_steps, comm=comm,
            halo_mode=HaloMode.NEIGHBOR_A2A, residual=residual,
        )

    per_rank = ThreadWorld(dg.size).run(prog)
    return [
        dg.assemble_global([states[k] for states in per_rank])
        for k in range(n_steps + 1)
    ]


def served_rollout(service, *args, **kwargs):
    """Submit one typed request and wait for its trajectory."""
    return service.submit(RolloutRequest(*args, **kwargs)).result().states


def serve_concurrently(service, graph_key, states, n_steps=N_STEPS,
                       residual=False):
    outputs = [None] * len(states)

    def fire(i):
        outputs[i] = served_rollout(service, "m", graph_key, states[i],
                                    n_steps, residual=residual)

    threads = [threading.Thread(target=fire, args=(i,)) for i in range(len(states))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outputs


def test_single_rank_served_rollout_bitwise(serve_model, full_graph, x0):
    direct = reference_rollout(serve_model, full_graph, x0, n_steps=N_STEPS)
    with InferenceService(ServeConfig(max_batch_size=1)) as service:
        service.register_model("m", serve_model)
        service.register_graph("g", [full_graph])
        served = served_rollout(service, "m", "g", x0, N_STEPS)
    assert len(served) == len(direct) == N_STEPS + 1
    for a, b in zip(served, direct):
        assert np.array_equal(a, b)


def test_single_rank_batched_requests_bitwise(serve_model, full_graph, x0):
    states = perturbed_states(x0, 4)
    directs = [reference_rollout(serve_model, full_graph, s, n_steps=N_STEPS) for s in states]
    with InferenceService(ServeConfig(max_batch_size=4, max_wait_s=0.1)) as service:
        service.register_model("m", serve_model)
        service.register_graph("g", [full_graph])
        outputs = serve_concurrently(service, "g", states)
        stats = service.stats()
    assert stats.max_batch_size > 1, "requests never coalesced"
    for served, direct in zip(outputs, directs):
        for a, b in zip(served, direct):
            assert np.array_equal(a, b)


def test_multi_rank_served_rollout_bitwise(serve_model, dist_graph, x0):
    direct = direct_distributed_rollout(serve_model, dist_graph, x0, N_STEPS)
    with InferenceService(ServeConfig(max_batch_size=1)) as service:
        service.register_model("m", serve_model)
        service.register_graph("g4", dist_graph.locals)
        served = served_rollout(service, "m", "g4", x0, N_STEPS)
    for a, b in zip(served, direct):
        assert np.array_equal(a, b)


def test_multi_rank_batched_requests_bitwise(serve_model, dist_graph, x0):
    states = perturbed_states(x0, 3)
    directs = [
        direct_distributed_rollout(serve_model, dist_graph, s, N_STEPS)
        for s in states
    ]
    with InferenceService(ServeConfig(max_batch_size=3, max_wait_s=0.1)) as service:
        service.register_model("m", serve_model)
        service.register_graph("g4", dist_graph.locals)
        outputs = serve_concurrently(service, "g4", states)
        stats = service.stats()
    assert stats.max_batch_size > 1, "requests never coalesced"
    for served, direct in zip(outputs, directs):
        for a, b in zip(served, direct):
            assert np.array_equal(a, b)


def test_residual_mode_matches_direct(serve_model, full_graph, x0):
    direct = reference_rollout(serve_model, full_graph, x0, n_steps=N_STEPS, residual=True)
    with InferenceService(ServeConfig(max_batch_size=1)) as service:
        service.register_model("m", serve_model)
        service.register_graph("g", [full_graph])
        served = served_rollout(service, "m", "g", x0, N_STEPS, residual=True)
    for a, b in zip(served, direct):
        assert np.array_equal(a, b)


def test_mixed_step_counts_in_one_batch(serve_model, full_graph, x0):
    states = perturbed_states(x0, 3)
    steps = [1, 3, 2]
    directs = [
        reference_rollout(serve_model, full_graph, s, n_steps=n)
        for s, n in zip(states, steps)
    ]
    with InferenceService(ServeConfig(max_batch_size=3, max_wait_s=0.1)) as service:
        service.register_model("m", serve_model)
        service.register_graph("g", [full_graph])
        outputs = [None] * 3

        def fire(i):
            outputs[i] = served_rollout(service, "m", "g", states[i], steps[i])

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for served, direct, n in zip(outputs, directs, steps):
        assert len(served) == n + 1
        for a, b in zip(served, direct):
            assert np.array_equal(a, b)


def test_streaming_yields_frames_in_step_order(serve_model, full_graph, x0):
    direct = reference_rollout(serve_model, full_graph, x0, n_steps=N_STEPS)
    with InferenceService(ServeConfig(max_batch_size=1)) as service:
        service.register_model("m", serve_model)
        service.register_graph("g", [full_graph])
        handle = service.submit(
            RolloutRequest(model="m", graph="g", x0=x0, n_steps=N_STEPS)
        )
        frames = list(handle.frames())
    assert [f.step for f in frames] == list(range(N_STEPS + 1))
    for a, b in zip(frames, direct):
        assert np.array_equal(a.state, b)
