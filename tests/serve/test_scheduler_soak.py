"""Mixed-tenant soak: the scheduler never changes trajectory bits.

Four disjoint batch keys (2 models x 2 precisions) interleaved onto a
2-worker pool engine, every trajectory compared bitwise
against a plain ``local://`` rollout of the same request.
"""

import numpy as np

from repro.gnn import GNNConfig, MeshGNN
from repro.runtime import RolloutRequest, connect
from repro.serve import ServeConfig

MODELS = {
    "soak-a": MeshGNN(GNNConfig(hidden=6, n_message_passing=2,
                                n_mlp_hidden=1, seed=21)),
    "soak-b": MeshGNN(GNNConfig(hidden=6, n_message_passing=2,
                                n_mlp_hidden=1, seed=22)),
}
PRECISIONS = ("float64", "float32")
N_STEPS = 3
REQUESTS_PER_KEY = 3


def _register(engine, full_graph):
    for name, model in MODELS.items():
        engine.register_model(name, model)
    engine.register_graph("g", [full_graph])


def test_mixed_tenant_soak_bitwise_vs_local(full_graph, x0):
    def request(model, precision):
        return RolloutRequest(model=model, graph="g", x0=x0,
                              n_steps=N_STEPS, precision=precision)

    with connect("local://") as local:
        _register(local, full_graph)
        reference = {
            (model, precision): local.rollout(request(model, precision))
            for model in MODELS for precision in PRECISIONS
        }

    config = ServeConfig(n_workers=2, max_batch_size=4, max_wait_s=0.02)
    with connect("pool://", config=config) as pool:
        _register(pool, full_graph)
        futures = [
            ((model, precision), pool.submit(request(model, precision)))
            for _ in range(REQUESTS_PER_KEY)
            for model in MODELS
            for precision in PRECISIONS
        ]
        for key, future in futures:
            result = future.result()
            expected = reference[key]
            assert len(result.states) == N_STEPS + 1
            for got, want in zip(result.states, expected.states):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        sched = pool.stats().scheduler
        assert sched.dispatches >= 4, (
            "4 disjoint keys must produce at least one dispatch each"
        )
