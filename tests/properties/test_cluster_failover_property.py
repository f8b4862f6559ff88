"""Property test: routed streams deliver exactly once under any kill plan.

The cluster's failover claim, attacked with generated adversity instead
of hand-picked cases: for a random shard count, request kind, horizon,
ensemble size and a random plan of shard deaths (at submit, or after
the k-th frame of a stream; never every shard), the consumer receives
each step exactly once, bitwise equal to the fault-free run, and the
books balance — ``accepted == completed + failed``, no shard left with
``in_flight``, and never more redrives than deaths. Scripted backends
(``tests/cluster/conftest.py``), so hundreds of plans cost a second.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterEngine
from repro.ensemble.api import EnsembleRequest
from repro.runtime.api import RolloutRequest

from tests.cluster.conftest import ScriptedEngine, delivered

X0 = np.zeros((4, 3))


@st.composite
def scenarios(draw):
    n_shards = draw(st.integers(2, 4))
    n_steps = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["rollout", "ensemble"]))
    n_members = draw(st.integers(1, 5))
    doomed = draw(st.lists(st.integers(0, n_shards - 1), unique=True,
                           max_size=n_shards - 1))
    # None: dead at submit; k: the first stream to reach frame k breaks
    deaths = {
        shard: draw(st.none() | st.integers(0, n_steps)) for shard in doomed
    }
    return n_shards, kind, n_steps, n_members, deaths


def serve(n_shards, kind, n_steps, n_members, deaths):
    """Run the one request under ``deaths`` → (frame bytes, stats)."""
    backends = {f"shard-{i}": ScriptedEngine(f"shard-{i}")
                for i in range(n_shards)}
    for shard, after in deaths.items():
        engine = backends[f"shard-{shard}"]
        if after is None:
            engine.dead = True
        else:
            engine.fail_after_frames = after
    if kind == "rollout":
        request = RolloutRequest(model="m", graph="g", x0=X0, n_steps=n_steps)
    else:
        request = EnsembleRequest(
            model="m", graph="g", x0=X0, n_steps=n_steps,
            n_members=n_members, return_members=True,
        )
    with ClusterEngine(backends, health_interval_s=None) as cluster:
        result = cluster.submit(request).result(timeout=10.0)
        stats = cluster.cluster_stats()
    return delivered(result), stats


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_any_kill_plan_delivers_exactly_once_and_balances(scenario):
    n_shards, kind, n_steps, n_members, deaths = scenario
    reference, _ = serve(n_shards, kind, n_steps, n_members, {})
    frames, stats = serve(n_shards, kind, n_steps, n_members, deaths)
    assert len(frames) == n_steps + 1
    assert frames == reference
    assert stats.accepted == stats.completed + stats.failed == 1
    assert stats.completed == 1
    assert all(s.in_flight == 0 for s in stats.shards)
    assert stats.redrives <= len(deaths)
