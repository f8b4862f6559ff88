"""ClusterEngine routing, failover, and exactly-once accounting —
exercised against scripted in-process backends (no sockets)."""

import threading

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ShardState
from repro.runtime.api import (
    CapabilityError,
    NoShardAvailable,
    RolloutRequest,
    TrainRequest,
)
from repro.serve.transport import RemoteServeError

from tests.cluster.conftest import ScriptedEngine, frame_value

X0 = np.zeros((4, 3))


def request(model="m", graph="g", n_steps=3):
    return RolloutRequest(model=model, graph=graph, x0=X0, n_steps=n_steps)


def primary_and_survivor(cluster, model="m", graph="g"):
    primary = cluster.place(model, graph)
    survivor = next(s for s in cluster.shard_ids if s != primary)
    return primary, survivor


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
    def test_dead_at_submit_fails_over_transparently(self, cluster, shards):
        primary, survivor = primary_and_survivor(cluster)
        shards[primary].fail_submissions = 1
        result = cluster.rollout(request())
        assert result.n_steps == 3
        assert len(shards[survivor].submitted) == 1
        assert cluster.shard_states()[primary] is ShardState.DOWN

    def test_mid_stream_death_redrives_without_duplicate_frames(
        self, cluster, shards
    ):
        """The acceptance-criterion scenario in miniature: the serving
        shard dies after frame 1; the redriven stream replays frames
        0..1 internally and the consumer sees each step exactly once."""
        primary, survivor = primary_and_survivor(cluster)
        shards[primary].fail_after_frames = 2  # dies before frame 2
        result = cluster.rollout(request(n_steps=4))
        assert [int(s[0, 0]) for s in result.states] == [0, 1, 2, 3, 4]
        assert len(shards[survivor].submitted) == 1
        stats = cluster.cluster_stats()
        assert stats.redrives == 1
        assert stats.accepted == stats.completed == 1
        assert stats.failed == 0
        assert {s.shard_id: s.redriven
                for s in stats.shards}[survivor] == 1

    def test_streamed_redrive_frames_are_bitwise_replayed(self, cluster,
                                                          shards):
        primary, _ = primary_and_survivor(cluster)
        shards[primary].fail_after_frames = 2
        frames = list(cluster.stream(request(n_steps=3)))
        assert [f.step for f in frames] == [0, 1, 2, 3]
        for f in frames:
            np.testing.assert_array_equal(f.state, frame_value(f.step))

    def test_all_shards_dead_raises_no_shard_available(self, cluster, shards):
        for engine in shards.values():
            engine.dead = True
        with pytest.raises(NoShardAvailable) as exc_info:
            cluster.rollout(request())
        # the attempt log names both shards
        assert {sid for sid, _ in exc_info.value.attempts} == set(shards)
        stats = cluster.cluster_stats()
        assert stats.accepted == stats.completed == stats.failed == 0

    def test_mid_stream_death_with_no_survivor_resolves_failed(
        self, cluster, shards
    ):
        primary, survivor = primary_and_survivor(cluster)
        shards[primary].fail_after_frames = 1
        shards[survivor].dead = True
        future = cluster.submit(request())
        with pytest.raises(NoShardAvailable):
            future.result(timeout=10.0)
        stats = cluster.cluster_stats()
        assert stats.accepted == 1
        assert stats.failed == 1 and stats.completed == 0

    def test_remote_serve_error_is_not_a_failover_event(self, cluster,
                                                        shards):
        """An internal server error is an answer, not an outage:
        no redrive, shard stays UP."""
        primary, survivor = primary_and_survivor(cluster)
        shards[primary].stream_error = RemoteServeError("worker exploded")
        with pytest.raises(RemoteServeError):
            cluster.rollout(request())
        assert cluster.shard_states()[primary] is ShardState.UP
        assert len(shards[survivor].submitted) == 0
        stats = cluster.cluster_stats()
        assert stats.redrives == 0
        assert stats.accepted == stats.failed == 1

    def test_typed_rejection_passes_through_unredriven(self, cluster, shards):
        from repro.serve.admission import QueueFull

        primary, survivor = primary_and_survivor(cluster)
        shards[primary].stream_error = QueueFull("queue at capacity")
        with pytest.raises(QueueFull):
            cluster.rollout(request())
        assert len(shards[survivor].submitted) == 0
        assert cluster.shard_states()[primary] is ShardState.UP


class TestHealth:
    def test_monitor_marks_down_after_threshold_and_recovers(self, shards):
        cluster = ClusterEngine(shards, health_interval_s=60.0,
                                failure_threshold=2)
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

    def test_in_flight_returns_to_zero_after_completion(self, cluster):
        cluster.rollout(request())
        assert all(s.in_flight == 0 for s in cluster.cluster_stats().shards)

    def test_abandoned_future_releases_shard_and_settles_ledger(
        self, cluster
    ):
        """Dropping a future without consuming it must not leak shard
        in_flight (which would poison spill routing) nor leave the
        exactly-once ledger unbalanced forever."""
        import gc

        future = cluster.submit(request())
        primary = cluster.place("m", "g")
        busy = {s.shard_id: s.in_flight
                for s in cluster.cluster_stats().shards}
        assert busy[primary] == 1
        del future
        gc.collect()
        stats = cluster.cluster_stats()
        assert all(s.in_flight == 0 for s in stats.shards)
        assert stats.accepted == 1
        assert stats.completed + stats.failed == 1  # settled as failed

    def test_abandoned_train_future_releases_shard(self, cluster):
        import gc

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
        """Every shard having ONE of {in-memory, upload} suffices —
        the gate is per shard, not an AND over each flag."""
        backends = {
            "mem-only": ScriptedEngine("mem-only", graph_upload=False),
            "upload-only": ScriptedEngine("upload-only",
                                          in_memory_assets=False),
        }
        cluster = ClusterEngine(backends, health_interval_s=None)
        try:
            cluster.register_graph("g", ["rank0-payload"])
            for engine in backends.values():
                assert engine.registered_graphs["g"] == ["rank0-payload"]
        finally:
            cluster.close()

    def test_register_graph_names_the_incapable_shard(self):
        backends = {
            "ok": ScriptedEngine("ok"),
            "neither": ScriptedEngine("neither", in_memory_assets=False,
                                      graph_upload=False),
        }
        cluster = ClusterEngine(backends, health_interval_s=None)
        try:
            with pytest.raises(CapabilityError, match="neither"):
                cluster.register_graph("g", ["rank0-payload"])
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

    def test_failover_trace_shows_both_attempts(self, cluster, shards):
        """SIGKILL-in-miniature: the serving shard dies mid-stream and
        the request redrives. ``get_trace`` must show the failed
        attempt on the dead shard AND the completed one on the
        survivor — correlated by the one id — while the exactly-once
        ledger stays untouched."""
        primary, survivor = primary_and_survivor(cluster)
        shards[primary].fail_after_frames = 2
        req = request(n_steps=4)
        result = cluster.rollout(req)
        assert [int(s[0, 0]) for s in result.states] == [0, 1, 2, 3, 4]

        spans = cluster.get_trace(req.trace_id)
        assert all(s.trace_id == req.trace_id for s in spans)
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
        cluster.rollout(request())

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
