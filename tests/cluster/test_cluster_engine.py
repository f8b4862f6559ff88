"""ClusterEngine routing, failover, and exactly-once accounting —
exercised against scripted in-process backends (no sockets).

The failover matrix runs over both streamed request kinds (``kind``):
a rollout is one routed stream, an ensemble one per member chunk, and
the same code path carries both across a shard's death."""

import gc
import threading

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ShardState
from repro.ensemble.api import EnsembleRequest
from repro.ensemble.stability import StabilityConfig
from repro.runtime.api import (
    CapabilityError,
    NoShardAvailable,
    RolloutRequest,
    TrainRequest,
)
from repro.serve.transport import RemoteServeError

from tests.cluster.conftest import (
    ScriptedEngine,
    delivered,
    frame_value,
    member_value,
)

X0 = np.zeros((4, 3))
N_MEMBERS = 4


def request(model="m", graph="g", n_steps=3):
    return RolloutRequest(model=model, graph=graph, x0=X0, n_steps=n_steps)


def make(kind, n_steps=3, **kw):
    """The ``kind`` flavour of the one test request on ``("m", "g")``."""
    if kind == "rollout":
        return request(n_steps=n_steps)
    return EnsembleRequest(
        model="m", graph="g", x0=X0, n_steps=n_steps, n_members=N_MEMBERS,
        return_members=True, **kw,
    )


@pytest.fixture(params=["rollout", "ensemble"])
def kind(request):
    return request.param


def primary_and_survivor(cluster, model="m", graph="g"):
    primary = cluster.place(model, graph)
    survivor = next(s for s in cluster.shard_ids if s != primary)
    return primary, survivor


def no_fault(kind, shard_ids, n_steps=3):
    """``(result, {shard: streams placed})`` of ``make(kind)`` on a fresh
    fault-free cluster over the same shard ids (so the same placement)."""
    backends = {sid: ScriptedEngine(sid) for sid in shard_ids}
    with ClusterEngine(backends, health_interval_s=None) as cluster:
        result = cluster.submit(make(kind, n_steps)).result()
    return result, {sid: len(e.submitted) for sid, e in backends.items()}


def victim_and_survivor(cluster, kind):
    """A shard that serves (a stream of) ``make(kind)``, and another."""
    _, placed = no_fault(kind, cluster.shard_ids)
    victim = next(sid for sid, n in placed.items() if n)
    return victim, next(s for s in cluster.shard_ids if s != victim)


def steps(kind, result):
    """The step each delivered frame carries, read off its payload."""
    if kind == "rollout":
        return [int(s[0, 0]) for s in result.states]
    return [int(f.members[0][0, 0] - 0.5) for f in result.frames]


class TestRouting:
    def test_sticky_placement(self, cluster, shards):
        primary, survivor = primary_and_survivor(cluster)
        for _ in range(5):
            cluster.rollout(request())
        assert len(shards[primary].submitted) == 5
        assert len(shards[survivor].submitted) == 0

    def test_distinct_keys_can_use_distinct_shards(self, cluster):
        """With enough keys, both shards serve traffic."""
        placements = {
            cluster.place(f"m{i}", f"g{i}") for i in range(32)
        }
        assert placements == set(cluster.shard_ids)

    def test_spill_to_least_loaded_when_primary_saturated(self, shards):
        cluster = ClusterEngine(shards, spill_threshold=1,
                                health_interval_s=None)
        try:
            primary, survivor = primary_and_survivor(cluster)
            # park one in-flight request on the primary (stream gated)
            gate = threading.Event()
            shards[primary].frame_gate = gate
            parked = cluster.submit(request())
            assert len(shards[primary].submitted) == 1
            # the next same-key submission spills to the idle survivor
            done = cluster.rollout(request())
            assert len(shards[survivor].submitted) == 1
            assert done.n_steps == 3
            stats = cluster.cluster_stats()
            assert stats.spills == 1
            assert {s.shard_id: s.spilled
                    for s in stats.shards}[survivor] == 1
            gate.set()
            assert parked.result(timeout=10.0).n_steps == 3
        finally:
            cluster.close()


class TestFailover:
    def test_dead_at_submit_fails_over_transparently(self, cluster, shards,
                                                     kind):
        victim, survivor = victim_and_survivor(cluster, kind)
        reference, placed = no_fault(kind, cluster.shard_ids)
        shards[victim].fail_submissions = 1
        result = cluster.submit(make(kind)).result()
        assert delivered(result) == delivered(reference)
        # every stream — 1 rollout, or each member chunk — ends up on
        # the survivor: the victim is DOWN before the next is placed
        assert len(shards[survivor].submitted) == sum(placed.values())
        assert cluster.shard_states()[victim] is ShardState.DOWN

    def test_mid_stream_death_redrives_without_duplicate_frames(
        self, cluster, shards, kind
    ):
        """The acceptance-criterion scenario in miniature: the serving
        shard dies after frame 1; the redriven stream replays frames
        0..1 internally and the consumer sees each step exactly once."""
        victim, survivor = victim_and_survivor(cluster, kind)
        reference, placed = no_fault(kind, cluster.shard_ids, n_steps=4)
        shards[victim].fail_after_frames = 2  # dies before frame 2
        result = cluster.submit(make(kind, n_steps=4)).result()
        assert steps(kind, result) == [0, 1, 2, 3, 4]
        assert delivered(result) == delivered(reference)
        assert len(shards[survivor].submitted) == placed[survivor] + 1
        stats = cluster.cluster_stats()
        assert stats.redrives == 1
        assert stats.accepted == stats.completed == 1
        assert stats.failed == 0
        assert {s.shard_id: s.redriven
                for s in stats.shards}[survivor] == 1
        assert all(s.in_flight == 0 for s in stats.shards)

    def test_streamed_redrive_frames_are_bitwise_replayed(self, cluster,
                                                          shards, kind):
        victim, _ = victim_and_survivor(cluster, kind)
        shards[victim].fail_after_frames = 2
        frames = list(cluster.stream(make(kind)))
        assert [f.step for f in frames] == [0, 1, 2, 3]
        for f in frames:
            if kind == "rollout":
                np.testing.assert_array_equal(f.state, frame_value(f.step))
            else:
                assert len(f.members) == N_MEMBERS
                for m, state in enumerate(f.members):
                    np.testing.assert_array_equal(
                        state, member_value(m, f.step)
                    )

    def test_all_shards_dead_raises_no_shard_available(self, cluster, shards,
                                                       kind):
        for engine in shards.values():
            engine.dead = True
        with pytest.raises(NoShardAvailable) as exc_info:
            cluster.submit(make(kind))
        # the attempt log names both shards
        assert {sid for sid, _ in exc_info.value.attempts} == set(shards)
        stats = cluster.cluster_stats()
        assert stats.accepted == stats.completed == stats.failed == 0
        assert all(s.in_flight == 0 for s in stats.shards)

    def test_mid_stream_death_with_no_survivor_resolves_failed(
        self, cluster, shards, kind
    ):
        victim, survivor = victim_and_survivor(cluster, kind)
        shards[victim].fail_after_frames = 1
        future = cluster.submit(make(kind))
        shards[survivor].dead = True
        with pytest.raises(NoShardAvailable):
            future.result(timeout=10.0)
        with pytest.raises(NoShardAvailable):
            future.result(timeout=10.0)  # stays failed, resolves once
        stats = cluster.cluster_stats()
        assert stats.accepted == 1
        assert stats.failed == 1 and stats.completed == 0
        assert all(s.in_flight == 0 for s in stats.shards)

    def test_remote_serve_error_is_not_a_failover_event(self, cluster,
                                                        shards, kind):
        """An internal server error is an answer, not an outage:
        no redrive, shard stays UP."""
        victim, survivor = victim_and_survivor(cluster, kind)
        _, placed = no_fault(kind, cluster.shard_ids)
        shards[victim].stream_error = RemoteServeError("worker exploded")
        with pytest.raises(RemoteServeError):
            cluster.submit(make(kind)).result()
        assert cluster.shard_states()[victim] is ShardState.UP
        assert len(shards[survivor].submitted) == placed[survivor]
        stats = cluster.cluster_stats()
        assert stats.redrives == 0
        assert stats.accepted == stats.failed == 1
        assert all(s.in_flight == 0 for s in stats.shards)

    def test_typed_rejection_passes_through_unredriven(self, cluster, shards,
                                                       kind):
        from repro.serve.admission import QueueFull

        victim, survivor = victim_and_survivor(cluster, kind)
        _, placed = no_fault(kind, cluster.shard_ids)
        shards[victim].stream_error = QueueFull("queue at capacity")
        with pytest.raises(QueueFull):
            cluster.submit(make(kind)).result()
        assert len(shards[survivor].submitted) == placed[survivor]
        assert cluster.shard_states()[victim] is ShardState.UP

    def test_early_stop_closes_every_chunk_stream(self, cluster, shards):
        """Blow-up detection runs once, at the router, over the whole
        ensemble; early-stop then closes each chunk's backend stream
        (a transport discards the connection) and frees its shard."""
        trips = StabilityConfig(max_energy_ratio=None, max_value=2.5)
        result = cluster.submit(
            make("ensemble", n_steps=4, stability=trips)
        ).result()
        # member 3 is 2.0 + step: over the bound from step 1 on
        assert result.stability.early_stopped
        assert (result.blow_up.member, result.blow_up.step) == (3, 1)
        assert result.n_frames == 2
        streams = [f for e in shards.values() for f in e.streams]
        assert len(streams) == 2
        assert all(f.done and f.closed for f in streams)
        stats = cluster.cluster_stats()
        assert stats.accepted == stats.completed == 1
        assert all(s.in_flight == 0 for s in stats.shards)


class TestHealth:
    def test_monitor_marks_down_after_threshold_and_recovers(self, shards):
        cluster = ClusterEngine(shards, health_interval_s=60.0)
        try:
            primary = cluster.shard_ids[0]
            shards[primary].dead = True
            cluster.probe_now()
            assert cluster.shard_states()[primary] is ShardState.UP  # 1 < 2
            cluster.probe_now()
            assert cluster.shard_states()[primary] is ShardState.DOWN
            shards[primary].dead = False
            cluster.probe_now()
            assert cluster.shard_states()[primary] is ShardState.UP
        finally:
            cluster.close()

    def test_draining_is_operator_held(self, shards):
        cluster = ClusterEngine(shards, health_interval_s=60.0)
        try:
            sid = cluster.shard_ids[0]
            cluster.drain(sid)
            cluster.probe_now()  # healthy probes must not undrain
            assert cluster.shard_states()[sid] is ShardState.DRAINING
        finally:
            cluster.close()

    def test_probe_of_in_process_shards_asks_them_nothing(self, monkeypatch):
        """An in-process shard has no transport to probe: a probe pass
        over ``pool://`` shards makes no ``capabilities()`` call, and
        the shards stay UP."""
        from repro.runtime import PooledEngine, connect

        calls = []
        declared = PooledEngine.capabilities
        with connect("pool://") as a, connect("pool://") as b:
            cluster = ClusterEngine({"a": a, "b": b}, health_interval_s=60.0)
            try:
                monkeypatch.setattr(
                    PooledEngine, "capabilities",
                    lambda self: calls.append(self) or declared(self),
                )
                cluster.probe_now()
                cluster.probe_now()
                assert calls == []
                assert set(cluster.shard_states().values()) == {ShardState.UP}
            finally:
                cluster.close()

    def test_in_flight_returns_to_zero_after_completion(self, cluster):
        cluster.rollout(request())
        assert all(s.in_flight == 0 for s in cluster.cluster_stats().shards)

    def test_abandoned_future_releases_shard_and_settles_ledger(
        self, cluster, kind
    ):
        """Dropping a future without consuming it must not leak shard
        in_flight (which would poison spill routing) nor leave the
        exactly-once ledger unbalanced forever."""
        _, placed = no_fault(kind, cluster.shard_ids)
        future = cluster.submit(make(kind))
        busy = {s.shard_id: s.in_flight
                for s in cluster.cluster_stats().shards}
        assert busy == placed  # 1 on the rollout's primary; 1 per chunk
        del future
        gc.collect()
        stats = cluster.cluster_stats()
        assert all(s.in_flight == 0 for s in stats.shards)
        assert stats.accepted == 1
        assert stats.completed + stats.failed == 1  # settled as failed

    def test_future_dropped_mid_iteration_settles_exactly_once(
        self, cluster, kind
    ):
        """Generator teardown and the finalizer both fire for a future
        dropped mid-stream; whichever runs first settles the books and
        the other is a no-op (no ``resolved twice`` in a dying
        generator, no double release)."""
        future = cluster.submit(make(kind))
        assert next(future.frames()).step == 0
        del future
        gc.collect()
        stats = cluster.cluster_stats()
        assert all(s.in_flight == 0 for s in stats.shards)
        assert (stats.accepted, stats.completed, stats.failed) == (1, 0, 1)

    def test_abandoned_train_future_releases_shard(self, cluster):
        future = cluster.submit(
            TrainRequest(model="m", graph="g", x=X0, target=X0)
        )
        primary = cluster.place("m", "g")
        assert {s.shard_id: s.in_flight
                for s in cluster.cluster_stats().shards}[primary] == 1
        rollout_ledger = cluster.cluster_stats().accepted
        del future
        gc.collect()
        stats = cluster.cluster_stats()
        assert all(s.in_flight == 0 for s in stats.shards)
        # train jobs never enter the rollout exactly-once ledger
        assert stats.accepted == rollout_ledger


class TestAssetsAndCapabilities:
    def test_registrations_broadcast_to_every_shard(self, cluster, shards):
        cluster.register_checkpoint("m", "/models/m.npz")
        cluster.register_graph_dir("g", "/graphs/g")
        for engine in shards.values():
            assert engine.registered_models == {"m": "/models/m.npz"}
            assert engine.registered_graphs == {"g": "/graphs/g"}
        assert cluster.model_names() == ["m"]
        assert cluster.graph_keys() == ["g"]

    def test_broadcast_failure_is_shard_aware(self, cluster, shards):
        from repro.runtime.api import ShardError

        victim = cluster.shard_ids[1]
        shards[victim].dead = True
        with pytest.raises(ShardError) as exc_info:
            cluster.register_checkpoint("m", "/models/m.npz")
        assert exc_info.value.shard_id == victim

    def test_asset_queries_are_the_intersection(self, cluster, shards):
        ids = cluster.shard_ids
        shards[ids[0]].registered_models = {"everywhere": 1, "only-a": 1}
        shards[ids[1]].registered_models = {"everywhere": 1, "only-b": 1}
        assert cluster.model_names() == ["everywhere"]

    def test_training_routes_to_placed_shard(self, cluster, shards):
        assert cluster.capabilities().training is True
        result = cluster.train(
            TrainRequest(model="m", graph="g", x=X0, target=X0)
        )
        assert result.losses == [0.5]
        primary = cluster.place("m", "g")
        assert len(shards[primary].submitted) == 1

    def test_training_keeps_shard_busy_until_resolution(self, cluster,
                                                        shards):
        """A running training job is visible load: in_flight stays up
        (so spill routing sees it) until result(), then the outcome
        lands in the shard ledger."""
        future = cluster.submit(
            TrainRequest(model="m", graph="g", x=X0, target=X0)
        )
        primary = cluster.place("m", "g")
        busy = {s.shard_id: s for s in cluster.cluster_stats().shards}
        assert busy[primary].in_flight == 1
        assert busy[primary].completed == 0
        future.result()
        settled = {s.shard_id: s for s in cluster.cluster_stats().shards}
        assert settled[primary].in_flight == 0
        assert settled[primary].completed == 1

    def test_register_graph_allows_heterogeneous_paths(self):
        """An in-memory graph reaches every shard: an in-process one
        takes the objects, a remote one uploads them — no shard is
        asked whether it can."""
        backends = {
            "in-process": ScriptedEngine("in-process"),
            "remote": ScriptedEngine("remote", in_memory_assets=False),
        }
        cluster = ClusterEngine(backends, health_interval_s=None)
        try:
            cluster.register_graph("g", ["rank0-payload"])
            for engine in backends.values():
                assert engine.registered_graphs["g"] == ["rank0-payload"]
        finally:
            cluster.close()

    def test_training_capability_is_intersected(self):
        cluster = ClusterEngine(
            {"a": ScriptedEngine("a", training=True),
             "b": ScriptedEngine("b", training=False)},
            health_interval_s=None,
        )
        try:
            assert cluster.capabilities().training is False
            with pytest.raises(CapabilityError, match="training"):
                cluster.train(
                    TrainRequest(model="m", graph="g", x=X0, target=X0)
                )
        finally:
            cluster.close()

    def test_validation(self, shards):
        with pytest.raises(ValueError, match="at least one backend"):
            ClusterEngine({}, health_interval_s=None)
        with pytest.raises(ValueError, match="spill_threshold"):
            ClusterEngine(shards, spill_threshold=0, health_interval_s=None)


class TestObservability:
    """One trace id tells the whole failover story, and the same
    transitions land as labeled counters + structured events."""

    def test_failover_trace_shows_both_attempts(self, cluster, shards, kind):
        """SIGKILL-in-miniature: the serving shard dies mid-stream and
        the request redrives. ``get_trace`` must show the failed
        attempt on the dead shard AND the completed one on the
        survivor — correlated by the one id — while the exactly-once
        ledger stays untouched."""
        primary, survivor = victim_and_survivor(cluster, kind)
        shards[primary].fail_after_frames = 2
        req = make(kind, n_steps=4)
        result = cluster.submit(req).result()
        assert steps(kind, result) == [0, 1, 2, 3, 4]

        spans = cluster.get_trace(req.trace_id)
        assert all(s.trace_id == req.trace_id for s in spans)
        # the story of the stream that died (a rollout is its one
        # stream; an ensemble's other chunks finish where they started)
        (died,) = [s for s in spans
                   if s.name == "attempt" and s.status == "failed"]
        spans = [s for s in spans
                 if s.attrs.get("chunk") == died.attrs.get("chunk")]
        attempts = [s for s in spans if s.name == "attempt"]
        assert len(attempts) == 2
        by_status = {s.status: s for s in attempts}
        assert by_status["failed"].attrs["shard"] == primary
        assert "error" in by_status["failed"].attrs
        assert by_status["ok"].attrs["shard"] == survivor
        assert by_status["ok"].attrs["redriven"] is True
        # both route decisions are in the trace too (initial + redrive)
        routes = [s for s in spans if s.name == "route"]
        assert [r.attrs["shard"] for r in routes] == [primary, survivor]
        # observability changed nothing about the delivery contract
        stats = cluster.cluster_stats()
        assert stats.accepted == stats.completed == 1
        assert stats.failed == 0 and stats.redrives == 1

    def test_unknown_trace_id_is_empty(self, cluster):
        cluster.rollout(request())
        assert cluster.get_trace("feedfacedeadbeef") == []

    def test_failover_increments_counters_and_events(self, cluster, shards):
        primary, survivor = primary_and_survivor(cluster)
        shards[primary].fail_after_frames = 1
        req = request()
        cluster.rollout(req)

        reg = cluster.metrics_registry()
        assert reg.counter("repro_cluster_redrives_total").total() == 1.0
        transitions = reg.counter("repro_cluster_health_transitions_total")
        assert transitions.value(shard=primary, to="down") == 1.0
        resolved = reg.counter("repro_cluster_requests_resolved_total")
        assert resolved.value(outcome="completed") == 1.0
        assert resolved.value(outcome="failed") == 0.0

        kinds = [e.kind for e in cluster.events()]
        assert "health_transition" in kinds
        assert "redrive" in kinds
        # the redrive explains itself: whose request, off which shard,
        # onto which, and how far the consumer had got
        (redrive,) = cluster.events("redrive")
        assert redrive.attrs == {"trace_id": req.trace_id, "source": primary,
                                 "target": survivor, "frames": 1}
        (transition,) = cluster.events("health_transition")
        assert transition.attrs == {"shard": primary, "to": "down"}

    def test_spill_is_counted_and_logged(self, shards):
        cluster = ClusterEngine(shards, spill_threshold=1,
                                health_interval_s=None)
        try:
            primary, survivor = primary_and_survivor(cluster)
            gate = threading.Event()
            shards[primary].frame_gate = gate
            parked = cluster.submit(request())
            cluster.rollout(request())  # spills to the survivor
            spills = cluster.metrics_registry().counter(
                "repro_cluster_spills_total"
            )
            assert spills.value(source=primary, target=survivor) == 1.0
            (event,) = cluster.events("spill")
            assert event.attrs["source"] == primary
            assert event.attrs["target"] == survivor
            gate.set()
            parked.result(timeout=10.0)
        finally:
            cluster.close()

    def test_shard_metrics_merge_with_shard_labels(self, cluster, shards):
        cluster.rollout(request())
        primary, _ = primary_and_survivor(cluster)
        reg = cluster.metrics_registry()
        req_counter = reg.counter("repro_requests_total")
        # ScriptedEngine's registry reports its submission count; the
        # cluster merge stamps each shard's series with its id
        assert req_counter.value(shard=primary) == 1.0
        assert req_counter.total() == 1.0


class TestLedgerIsAViewOfTheRegistry:
    """The routing ledger is stored once, in the cluster's registry:
    ``cluster_stats()`` is those series read back, so what the status
    table shows is exactly what Prometheus can scrape."""

    def test_cluster_stats_equal_the_view_of_the_registry(self, shards):
        from repro.cluster import ClusterStats, ShardStatus

        cluster = ClusterEngine(shards, spill_threshold=1,
                                health_interval_s=None)
        try:
            primary, survivor = primary_and_survivor(cluster)
            gate = threading.Event()
            shards[primary].frame_gate = gate
            parked = cluster.submit(request())
            cluster.rollout(request())  # spills to the survivor
            gate.set()
            shards[primary].frame_gate = None
            parked.result(timeout=10.0)
            cluster.ensemble(make("ensemble"))
            shards[primary].stream_error = RemoteServeError("exploded")
            with pytest.raises(RemoteServeError):
                cluster.rollout(request())  # a failed outcome
            shards[primary].fail_after_frames = 1
            cluster.rollout(request())  # a redrive onto the survivor
            stats = cluster.cluster_stats()
            registry = cluster.metrics_registry()
        finally:
            cluster.close()

        def series(suffix):
            return registry.counter(f"repro_cluster_{suffix}_total")

        spills = series("spills").samples()
        view = ClusterStats(
            shards=tuple(
                ShardStatus(
                    shard_id=sid,
                    state=cluster.shard_states()[sid].value,
                    in_flight=0,
                    routed=int(series("shard_routed").value(shard=sid)),
                    spilled=int(sum(n for labels, n in spills.items()
                                    if dict(labels)["target"] == sid)),
                    redriven=int(series("shard_redriven").value(shard=sid)),
                    completed=int(series("shard_outcomes").value(
                        shard=sid, outcome="completed")),
                    failed=int(series("shard_outcomes").value(
                        shard=sid, outcome="failed")),
                )
                for sid in cluster.shard_ids
            ),
            accepted=int(series("requests_accepted").total()),
            completed=int(series("requests_resolved").value(
                outcome="completed")),
            failed=int(series("requests_resolved").value(outcome="failed")),
            redrives=int(series("redrives").total()),
            spills=int(series("spills").total()),
        )
        assert stats == view
        # and the run really was mixed
        assert (stats.accepted, stats.completed, stats.failed) == (5, 4, 1)
        assert stats.redrives == 1
        by_shard = {s.shard_id: s for s in stats.shards}
        # the parked rollout's neighbour, and the ensemble's second
        # chunk (its first holds the one slot the threshold allows)
        assert by_shard[survivor].spilled >= 1
        assert sum(s.spilled for s in stats.shards) == stats.spills == 2
        assert by_shard[survivor].redriven == 1
        assert by_shard[primary].failed == 1
        assert sum(s.routed for s in stats.shards) == 7  # 4 + 2 chunks + 1
        assert sum(s.completed + s.failed for s in stats.shards) == 6

    def test_router_series_stay_out_of_the_serve_stats_view(self, cluster):
        """``ServeStats.from_registry`` keeps ignoring router-side
        series: the new ones are named in the cluster's own table, not
        in ``serve.metrics.SERIES``."""
        from repro.serve.metrics import SERIES

        cluster.rollout(request())
        exported = {
            name for name in cluster.metrics_registry().snapshot()
            if name.startswith("repro_cluster_")
        }
        assert "repro_cluster_requests_accepted_total" in exported
        assert "repro_cluster_shard_routed_total" in exported
        assert not exported & {row.name for row in SERIES}
        assert cluster.stats().requests == 1  # the scripted shard's count
