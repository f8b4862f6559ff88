"""Engine conformance: one API, three substrates, identical behavior.

The redesign's contract, asserted over ``LocalEngine`` /
``PooledEngine`` / ``RemoteEngine`` with path-identical assets:

* the same :class:`RolloutRequest` produces **bitwise identical**
  trajectories on every engine, 1-rank and 4-rank;
* failures cross every engine as the **same typed exceptions**
  (``QueueFull``, ``DeadlineExpired``, ``ModelNotFound``, ``KeyError``,
  capability rejections as ``CapabilityError``);
* a :class:`TrainRequest` through the pooled engine matches a direct
  :func:`~repro.gnn.trainer.train_model` run on the same batch, bit
  for bit;
* the pre-engine ``ServeClient`` / ``NetworkClient`` shims are gone —
  :func:`repro.runtime.connect` is the single front door, and pooled
  engine teardown is idempotent and leak-free.
"""

import dataclasses
import gc
import inspect
import os
import threading
import time

import numpy as np
import pytest

from repro.comm.single import SingleProcessComm
from repro.ensemble import EnsembleRequest, PerturbationSpec
from repro.gnn import load_checkpoint, rollout, train_model
from repro.runtime import (
    CapabilityError,
    RolloutRequest,
    RolloutResult,
    StepFrame,
    TrainRequest,
)
from repro.runtime.api import EngineCapabilities
from repro.serve import (
    DeadlineExpired,
    IncompatibleModel,
    QueueFull,
    ServeConfig,
    ServeServer,
)
from repro.serve.registry import ModelNotFound
from repro.tensor import naive_aggregation
from tests.runtime.conftest import ENGINE_CONFIG, ENGINE_KINDS, make_engine


def assert_bitwise_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype == np.float64
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestBitwiseTrajectories:
    @pytest.mark.parametrize("graph_key", ["g1", "g4"])
    def test_all_engines_agree_bitwise(self, asset_paths, x0, graph_key):
        """1- and 4-rank trajectories are identical across every engine."""
        request = RolloutRequest(model="m", graph=graph_key, x0=x0, n_steps=3)
        trajectories = {}
        for kind in ENGINE_KINDS:
            with make_engine(kind, asset_paths) as engine:
                result = engine.rollout(request)
                assert isinstance(result, RolloutResult)
                assert result.n_steps == 3
                trajectories[kind] = result.states
        assert_bitwise_equal(trajectories["local"], trajectories["pool"])
        assert_bitwise_equal(trajectories["local"], trajectories["tcp"])
        assert_bitwise_equal(trajectories["local"], trajectories["cluster"])

    def test_single_rank_matches_direct_rollout(self, asset_paths, x0,
                                                full_graph):
        """The engine result is the reference rollout — the ``Tensor``
        op chain with ``np.add.at`` scatters, not the fused path the
        engines themselves run — bit for bit."""
        model = load_checkpoint(asset_paths[0])
        with naive_aggregation():
            reference = rollout(model, full_graph, x0, n_steps=3,
                                workspace=False)
        request = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=3)
        for kind in ENGINE_KINDS:
            with make_engine(kind, asset_paths) as engine:
                assert_bitwise_equal(engine.rollout(request).states, reference)

    def test_stream_yields_typed_frames_matching_result(self, any_engine, x0):
        request = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=2)
        frames = list(any_engine.stream(request))
        assert [f.step for f in frames] == [0, 1, 2]
        assert all(isinstance(f, StepFrame) for f in frames)
        result = any_engine.rollout(request)
        assert_bitwise_equal([f.state for f in frames], result.states)

    def test_submit_future_result(self, any_front_door, x0):
        future = any_front_door.submit(
            RolloutRequest(model="m", graph="g4", x0=x0, n_steps=2)
        )
        result = future.result(timeout=60.0)
        assert future.done
        assert len(result.states) == 3
        assert result.request_id == future.request.request_id

    def test_result_after_full_stream_never_blocks(self, any_front_door,
                                                   x0):
        """frames() and result() share one iterator: draining the stream
        and then asking for the result returns the collected trajectory
        instead of re-reading an exhausted stream."""
        future = any_front_door.submit(
            RolloutRequest(model="m", graph="g1", x0=x0, n_steps=2)
        )
        steps = [f.step for f in future.frames(timeout=30.0)]
        assert steps == [0, 1, 2]
        result = future.result(timeout=5.0)  # must complete immediately
        assert len(result.states) == 3
        # idempotent from here on
        assert len(future.result(timeout=5.0).states) == 3

    def test_result_twice_returns_the_same_trajectory(self, any_front_door,
                                                      x0):
        future = any_front_door.submit(
            RolloutRequest(model="m", graph="g1", x0=x0, n_steps=2)
        )
        first = future.result(timeout=30.0)
        started = time.perf_counter()
        again = future.result(timeout=5.0)  # nothing left to wait for
        assert time.perf_counter() - started < 1.0
        assert_bitwise_equal(first.states, again.states)

    def test_result_after_partial_stream_drains_the_rest(self,
                                                         any_front_door, x0):
        future = any_front_door.submit(
            RolloutRequest(model="m", graph="g1", x0=x0, n_steps=3)
        )
        stream = future.frames(timeout=30.0)
        first = next(stream)
        assert first.step == 0
        result = future.result(timeout=30.0)
        assert len(result.states) == 4
        assert np.array_equal(result.states[0], first.state)

    @pytest.mark.parametrize("kind", ["pool", "tcp", "cluster", "service"])
    def test_failed_stream_never_resolves_to_truncated_success(
        self, kind, asset_paths, x0
    ):
        """A rollout that failed stays failed: result() re-raises the
        stream's terminal error instead of returning a short
        trajectory as if it had succeeded."""
        with make_engine(kind, asset_paths) as engine:
            # bad shape passes submission and fails in the worker/stream
            future = engine.submit(RolloutRequest(
                model="m", graph="g1", x0=x0[:-1], n_steps=3,
            ))
            with pytest.raises(IncompatibleModel):
                future.result(timeout=30.0)
            with pytest.raises(IncompatibleModel):
                future.result(timeout=5.0)  # same error, not a short success

    def test_shed_request_reraises_the_same_typed_error(self, any_front_door,
                                                        x0):
        """A request the queue shed stays shed: every read re-raises the
        typed rejection, never a timeout on a stream that already ended."""
        future = any_front_door.submit(RolloutRequest(
            model="m", graph="g1", x0=x0, n_steps=2, deadline_s=1e-9,
        ))
        for _ in range(3):
            with pytest.raises(DeadlineExpired):
                future.result(timeout=5.0)

    def test_ensemble_frames_is_one_shared_iterator(self, any_front_door,
                                                    x0):
        future = any_front_door.submit(EnsembleRequest(
            "m", "g1", x0, n_steps=2, n_members=3,
            perturbation=PerturbationSpec(seed=1, noise_scale=1e-3),
        ))
        stream = future.frames(timeout=30.0)
        first = next(stream)
        assert future.frames() is stream  # continues, never re-drives
        steps = [first.step] + [f.step for f in future.frames()]
        assert steps == [0, 1, 2]
        result = future.result(timeout=5.0)
        assert [f.step for f in result.frames] == [0, 1, 2]
        assert result.stability.stable


class TestTypedErrors:
    def test_unknown_model_is_model_not_found(self, any_engine, x0):
        with pytest.raises(ModelNotFound):
            any_engine.rollout(
                RolloutRequest(model="nope", graph="g1", x0=x0, n_steps=1)
            )

    def test_unknown_graph_is_key_error(self, any_engine, x0):
        with pytest.raises(KeyError):
            any_engine.rollout(
                RolloutRequest(model="m", graph="nope", x0=x0, n_steps=1)
            )

    def test_invalid_request_rejected_at_construction(self, x0):
        with pytest.raises(ValueError, match="n_steps"):
            RolloutRequest(model="m", graph="g1", x0=x0, n_steps=0)
        with pytest.raises(ValueError, match="2-D"):
            RolloutRequest(model="m", graph="g1", x0=x0[:, 0], n_steps=1)
        with pytest.raises(ValueError, match="halo mode"):
            RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1,
                           halo_mode="bogus")

    @pytest.mark.parametrize("kind", ["pool", "tcp", "cluster"])
    def test_queue_full_is_identical_across_engines(self, kind, asset_paths,
                                                    x0):
        """Overloading a capped queue sheds with QueueFull on every
        engine that has a queue (local engines execute inline)."""
        config = ServeConfig(max_batch_size=1, max_wait_s=0.0, n_workers=1,
                             max_queue_depth=1)
        with make_engine(kind, asset_paths, serve_config=config) as engine:
            outcomes = _concurrent_rollouts(engine, x0, n=8, n_steps=4)
            shed = [o for o in outcomes if isinstance(o, QueueFull)]
            served = [o for o in outcomes if isinstance(o, RolloutResult)]
            unexpected = [o for o in outcomes
                          if not isinstance(o, (QueueFull, RolloutResult))]
            assert not unexpected, unexpected
            assert shed, "capped queue never shed under an 8-deep burst"
            assert served, "admission must still serve within the cap"

    @pytest.mark.parametrize("kind", ["pool", "tcp", "cluster"])
    def test_deadline_expired_is_identical_across_engines(self, kind,
                                                          asset_paths, x0):
        config = ServeConfig(max_batch_size=1, max_wait_s=0.0, n_workers=1,
                             default_deadline_s=0.001)
        with make_engine(kind, asset_paths, serve_config=config) as engine:
            outcomes = _concurrent_rollouts(engine, x0, n=8, n_steps=4)
            expired = [o for o in outcomes if isinstance(o, DeadlineExpired)]
            unexpected = [o for o in outcomes
                          if not isinstance(o,
                                            (DeadlineExpired, RolloutResult))]
            assert not unexpected, unexpected
            assert expired, "a 1ms deadline never expired under a burst"

    def test_remote_rejects_training_with_capability_error(self, asset_paths,
                                                           x0):
        with make_engine("tcp", asset_paths) as engine:
            assert engine.capabilities().training is False
            with pytest.raises(CapabilityError, match="training"):
                engine.train(TrainRequest(model="m", graph="g1",
                                          x=x0, target=x0))

    def test_remote_rejects_in_memory_models_with_capability_error(
        self, asset_paths, engine_model
    ):
        """Models still register by checkpoint path only; graphs cross
        the wire as an upload instead."""
        with make_engine("tcp", asset_paths) as engine:
            assert engine.capabilities().in_memory_assets is False
            with pytest.raises(CapabilityError, match="checkpoint"):
                engine.register_model("m2", engine_model)

    def test_checkpoint_registration_is_lazy(self, any_engine, asset_paths,
                                             x0):
        """``register_checkpoint`` has no eager switch on any engine: a
        checkpoint whose config does not match ``expect_config``
        registers, and its first rollout raises the typed
        ``IncompatibleModel`` (``incompatible`` over the wire)."""
        params = inspect.signature(any_engine.register_checkpoint).parameters
        assert list(params) == ["name", "path", "expect_config"]
        wrong = ENGINE_CONFIG.with_seed(ENGINE_CONFIG.seed + 1)
        any_engine.register_checkpoint("wrong", asset_paths[0],
                                       expect_config=wrong)
        assert "wrong" in any_engine.model_names()
        with pytest.raises(IncompatibleModel, match="config"):
            any_engine.rollout(
                RolloutRequest(model="wrong", graph="g1", x0=x0, n_steps=1)
            )

    def test_submit_rejects_non_requests(self, any_engine):
        with pytest.raises(TypeError, match="RolloutRequest, EnsembleRequest or TrainRequest"):
            any_engine.submit("not a request")


class TestDeclaredCapabilities:
    """Each engine declares one fixed record of the only fields that
    differ between engines; everything else every engine serves."""

    EXPECTED = {
        "local": ("local", True, True),
        "pool": ("pool", True, True),
        "tcp": ("tcp", False, False),
        "cluster": ("cluster", False, False),  # over tcp:// shards
    }

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_declared_record(self, kind, asset_paths):
        with make_engine(kind, asset_paths) as engine:
            caps = engine.capabilities()
        assert [f.name for f in dataclasses.fields(caps)] == [
            "transport", "training", "in_memory_assets",
        ]
        assert (caps.transport, caps.training, caps.in_memory_assets) == (
            self.EXPECTED[kind]
        )

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_in_memory_model_follows_the_record(self, kind, asset_paths,
                                                engine_model):
        """``register_model`` takes a live model exactly where the
        record says so; elsewhere it is a typed rejection that names
        the checkpoint path and registers nothing."""
        with make_engine(kind, asset_paths) as engine:
            if engine.capabilities().in_memory_assets:
                engine.register_model("m2", engine_model)
                assert "m2" in engine.model_names()
            else:
                with pytest.raises(CapabilityError, match="checkpoint"):
                    engine.register_model("m2", engine_model)
                assert "m2" not in engine.model_names()

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_every_engine_serves_what_has_no_flag(self, kind, asset_paths,
                                                  x0, dist_graph):
        """In-memory graph registration, the float32 tier and ensembles
        are served by every engine — the reason they have no flag."""
        with make_engine(kind, asset_paths) as engine:
            engine.register_graph("g4-mem", list(dist_graph.locals))
            f32 = [
                engine.rollout(RolloutRequest(
                    model="m", graph=graph, x0=x0, n_steps=2,
                    precision="float32",
                )).states
                for graph in ("g4-mem", "g4")
            ]
            ensemble = engine.ensemble(EnsembleRequest(
                "m", "g4-mem", x0, n_steps=2, n_members=2,
                perturbation=PerturbationSpec(seed=3, noise_scale=1e-3),
            ))
        assert all(s.dtype == np.float32 for s in f32[0])
        assert len(f32[0]) == len(f32[1]) == 3
        for a, b in zip(*f32):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
        assert [f.step for f in ensemble.frames] == [0, 1, 2]

    @pytest.mark.parametrize("flag", ["training", "in_memory_assets"])
    def test_intersection_ands_each_flag(self, flag):
        """A group's record holds a flag only if every member does."""
        on = EngineCapabilities(transport="a", training=True,
                                in_memory_assets=True)
        off = dataclasses.replace(on, transport="b", **{flag: False})
        assert getattr(
            EngineCapabilities.intersection("cluster", [on, on]), flag
        ) is True
        mixed = EngineCapabilities.intersection("cluster", [on, off])
        assert getattr(mixed, flag) is False
        assert mixed.transport == "cluster"

    def test_intersection_needs_a_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            EngineCapabilities.intersection("cluster", [])


class TestTraining:
    @pytest.mark.parametrize("kind", ["local", "pool"])
    def test_train_matches_direct_trainer_bitwise(self, kind, asset_paths,
                                                  x0, full_graph):
        """A B=1 TrainRequest reproduces a hand-wired train_model run."""
        target = x0 * 0.9
        with make_engine(kind, asset_paths) as engine:
            job = engine.train(TrainRequest(model="m", graph="g1",
                                            x=x0, target=target,
                                            iterations=3, lr=1e-3))
        reference_model = load_checkpoint(asset_paths[0])
        direct = train_model(reference_model, full_graph, x0, target,
                             SingleProcessComm(), iterations=3, lr=1e-3)
        assert job.losses == direct.losses
        assert job.world_size == 1 and job.batch_size == 1
        for name, value in direct.state_dict.items():
            assert np.array_equal(job.state_dict[name], value), name

    def test_distributed_train_is_consistent(self, asset_paths, x0):
        """The 4-rank job reproduces the 1-rank optimization trajectory
        (the paper's training-consistency claim, via the engine API)."""
        target = x0 * 0.9
        request = dict(model="m", x=x0, target=target, iterations=3, lr=1e-3)
        with make_engine("pool", asset_paths) as engine:
            r1 = engine.train(TrainRequest(graph="g1", **request))
            r4 = engine.train(TrainRequest(graph="g4", **request))
        assert r4.world_size == 4
        np.testing.assert_allclose(r4.losses, r1.losses, rtol=1e-7)

    def test_batched_samples_tile_through_one_job(self, asset_paths, x0):
        """B=2 samples ride one tiled forward/backward; engines agree."""
        x = np.stack([x0, x0 * 1.1])
        target = np.stack([x0 * 0.9, x0 * 0.8])
        request = TrainRequest(model="m", graph="g4", x=x, target=target,
                               iterations=2, lr=1e-3)
        results = {}
        for kind in ("local", "pool"):
            with make_engine(kind, asset_paths) as engine:
                results[kind] = engine.train(request)
        assert results["pool"].batch_size == 2
        assert results["pool"].losses == results["local"].losses
        for name, value in results["local"].state_dict.items():
            assert np.array_equal(results["pool"].state_dict[name], value)

    def test_training_never_mutates_the_registered_model(self, asset_paths,
                                                         x0):
        with make_engine("pool", asset_paths) as engine:
            before = engine.rollout(
                RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
            ).states
            engine.train(TrainRequest(model="m", graph="g1",
                                      x=x0, target=x0 * 0.9, iterations=2))
            after = engine.rollout(
                RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
            ).states
        assert_bitwise_equal(before, after)

    def test_train_jobs_surface_in_stats(self, asset_paths, x0):
        with make_engine("pool", asset_paths) as engine:
            engine.train(TrainRequest(model="m", graph="g1",
                                      x=x0, target=x0 * 0.9))
            stats = engine.stats()
            assert stats.train_jobs == 1
            assert stats.train_s > 0.0
            assert "train jobs" in engine.stats_markdown()


class TestConnectionPooling:
    def test_sequential_requests_share_one_connection(self, asset_paths, x0):
        with make_engine("tcp", asset_paths) as engine:
            for _ in range(5):
                engine.rollout(
                    RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
                )
            stats = engine.pool_stats()
            assert stats.dials == 1
            assert stats.reuses >= 5
            assert stats.idle == 1

    def test_stream_timeout_does_not_leak_onto_pooled_connection(
        self, asset_paths, x0
    ):
        """A narrow per-frame timeout used by one stream must not
        survive on the socket when it returns to the pool."""
        with make_engine("tcp", asset_paths) as engine:
            request = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
            result = engine.rollout(request, timeout=0.5)
            assert len(result.states) == 2
            conn = engine._pool.acquire()
            try:
                assert conn.sock.gettimeout() == engine._pool.request_timeout_s
            finally:
                engine._pool.release(conn)

    def test_reconnect_on_eof_once(self, asset_paths, x0):
        """A connection that died while pooled costs one redial, not an
        error. The server hangs up after answering an unknown op — the
        engine releases that connection to the pool unaware, exactly
        the state a bounced server or an idle-timeout middlebox leaves
        behind — and the next request recovers transparently."""
        with make_engine("tcp", asset_paths) as engine:
            request = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
            engine.rollout(request)
            assert engine.pool_stats().dials == 1
            with pytest.raises(ValueError, match="unknown op"):
                engine._call({"op": "not-an-op"})  # server closes afterwards
            result = engine.rollout(request)  # reconnects transparently
            assert len(result.states) == 2
            stats = engine.pool_stats()
            assert stats.dials == 2, stats


    def test_abandoned_stream_discards_its_connection(self, asset_paths, x0):
        """A stream closed before ``done`` must not keep its socket:
        unread frames may still be in flight on it, so it is closed —
        never re-pooled, never left for the garbage collector — and the
        next request costs exactly one dial."""
        with make_engine("tcp", asset_paths) as engine:
            request = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=3)
            future = engine.submit(request)
            frames = future.frames()
            next(frames)
            conn = future._conn
            frames.close()
            assert future.done
            assert conn.sock.fileno() == -1, "abandoned stream kept its socket"
            before = engine.pool_stats()
            assert before.idle == 0
            assert len(engine.rollout(request).states) == 4
            after = engine.pool_stats()
            assert after.dials == before.dials + 1
            assert after.idle == 1


class TestGraphUpload:
    """Graph registration over the wire: arrays ship as .npy frames."""

    @pytest.mark.parametrize("kind", ["tcp", "cluster"])
    def test_uploaded_graph_serves_identical_bits(self, kind, asset_paths,
                                                  x0, full_graph):
        """An uploaded in-memory graph is the same asset a local engine
        pins directly — the wire adds no arithmetic."""
        with make_engine("local", asset_paths) as local:
            local.register_graph("g-up", [full_graph])
            reference = local.rollout(
                RolloutRequest(model="m", graph="g-up", x0=x0, n_steps=3)
            ).states
        with make_engine(kind, asset_paths) as engine:
            engine.register_graph("g-up", [full_graph])
            assert "g-up" in engine.graph_keys()
            served = engine.rollout(
                RolloutRequest(model="m", graph="g-up", x0=x0, n_steps=3)
            ).states
        assert_bitwise_equal(served, reference)

    def test_multirank_upload_matches_directory_registration(
        self, asset_paths, x0, dist_graph
    ):
        """Uploading dg.locals == registering the saved directory."""
        with make_engine("tcp", asset_paths) as engine:
            engine.register_graph("g4-up", list(dist_graph.locals))
            uploaded = engine.rollout(
                RolloutRequest(model="m", graph="g4-up", x0=x0, n_steps=2)
            ).states
            from_dir = engine.rollout(
                RolloutRequest(model="m", graph="g4", x0=x0, n_steps=2)
            ).states
        assert_bitwise_equal(uploaded, from_dir)


class TestCluster:
    """Cluster-specific conformance: placement, failover plumbing,
    capability intersection, merged stats, exactly-once ledger."""

    def test_capabilities_are_the_intersection(self, asset_paths):
        with make_engine("cluster", asset_paths) as engine:
            caps = engine.capabilities()
            assert caps.transport == "cluster"
            # every shard is a tcp backend: no training, no in-memory
            # models
            assert caps.training is False
            assert caps.in_memory_assets is False

    def test_cluster_rejects_training_with_capability_error(self, asset_paths,
                                                            x0):
        with make_engine("cluster", asset_paths) as engine:
            with pytest.raises(CapabilityError, match="training"):
                engine.train(TrainRequest(model="m", graph="g1",
                                          x=x0, target=x0))

    def test_same_key_routes_to_one_shard(self, asset_paths, x0):
        """Placement is sticky: repeated requests on one (model, graph)
        key land on the same shard, keeping its caches hot."""
        with make_engine("cluster", asset_paths) as engine:
            primary = engine.place("m", "g1")
            for _ in range(4):
                engine.rollout(
                    RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
                )
            statuses = {s.shard_id: s for s in engine.cluster_stats().shards}
            assert statuses[primary].routed == 4
            others = [s for sid, s in statuses.items() if sid != primary]
            assert all(s.routed == 0 for s in others)

    def test_exactly_once_ledger_balances(self, asset_paths, x0):
        with make_engine("cluster", asset_paths) as engine:
            for _ in range(3):
                engine.rollout(
                    RolloutRequest(model="m", graph="g4", x0=x0, n_steps=1)
                )
            stats = engine.cluster_stats()
            assert stats.accepted == 3
            assert stats.completed == 3
            assert stats.failed == 0
            assert stats.accepted == stats.completed + stats.failed

    def test_drain_diverts_new_work_to_survivor(self, asset_paths, x0):
        with make_engine("cluster", asset_paths) as engine:
            primary = engine.place("m", "g1")
            survivor = next(s for s in engine.shard_ids if s != primary)
            engine.drain(primary)
            engine.rollout(
                RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
            )
            statuses = {s.shard_id: s for s in engine.cluster_stats().shards}
            assert statuses[primary].routed == 0
            assert statuses[survivor].routed == 1
            assert statuses[primary].state == "draining"
            engine.undrain(primary)
            engine.rollout(
                RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
            )
            assert {s.shard_id: s.routed
                    for s in engine.cluster_stats().shards}[primary] == 1

    def test_stats_merge_across_shards(self, asset_paths, x0):
        """Requests on keys placed on different shards sum in stats()."""
        with make_engine("cluster", asset_paths) as engine:
            # g1 and g4 may or may not share a shard; route both and
            # check the merged totals regardless
            for graph in ("g1", "g4", "g1", "g4"):
                engine.rollout(
                    RolloutRequest(model="m", graph=graph, x0=x0, n_steps=1)
                )
            merged = engine.stats()
            assert merged.requests == 4
            assert merged.steps == 4
            table = engine.stats_markdown()
            assert "requests served" in table
            assert "| shard |" in table

    def test_all_shards_down_is_no_shard_available(self, asset_paths, x0):
        from repro.runtime import NoShardAvailable

        with make_engine("cluster", asset_paths) as engine:
            for sid in engine.shard_ids:
                engine.drain(sid)
            with pytest.raises(NoShardAvailable, match="no shard available"):
                engine.rollout(
                    RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
                )


class TestStatsAreAViewOfTheRegistry:
    """One introspection source per engine: ``metrics_registry()``.
    ``stats()`` is its view, on every substrate."""

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_stats_equal_the_view_of_the_registry(self, kind, asset_paths,
                                                  x0):
        from repro.serve import ServeStats

        with make_engine(kind, asset_paths) as engine:
            for graph in ("g1", "g4", "g1"):
                engine.rollout(
                    RolloutRequest(model="m", graph=graph, x0=x0, n_steps=2)
                )
            view = ServeStats.from_registry(engine.metrics_registry())
            stats = engine.stats()
        assert view == stats
        assert stats.requests == 3 and stats.steps == 6
        assert stats.admission.queue_wait.total == 3
        assert stats.registry.per_model_loads["m"] >= 1

    def test_cluster_stats_are_the_view_of_the_merged_shards(
        self, asset_paths, x0
    ):
        from repro.obs.registry import MetricsRegistry
        from repro.runtime import connect
        from repro.serve import ServeStats

        with make_engine("cluster", asset_paths) as engine:
            for graph in ("g1", "g4", "g1", "g4"):
                engine.rollout(
                    RolloutRequest(model="m", graph=graph, x0=x0, n_steps=1)
                )
            merged = MetricsRegistry()
            for sid in engine.shard_ids:
                with connect(f"tcp://{sid}") as shard:
                    merged.merge(shard.metrics_registry().relabel(shard=sid))
            stats = engine.stats()
            assert stats == ServeStats.from_registry(merged)
            assert stats.requests == 4
            # the cluster's own exposition is that merge plus its
            # router-side counters
            exported = engine.metrics_registry().snapshot()
            assert {
                name: entry for name, entry in exported.items()
                if not name.startswith("repro_cluster_")
            } == merged.snapshot()

    def test_the_stats_op_is_gone_from_the_wire(self, asset_paths):
        """``metrics`` is the one stats document on the wire: a raw
        ``stats`` message gets the typed reply every unknown op gets —
        no hang, no untyped failure — and the server keeps serving."""
        import socket

        from repro.serve.protocol import read_message, write_message

        with make_engine("tcp", asset_paths) as engine:
            sock = socket.create_connection((engine.host, engine.port),
                                            timeout=10.0)
            try:
                with sock.makefile("rwb") as stream:
                    write_message(stream, {"op": "stats"})
                    stream.flush()
                    reply, _ = read_message(stream)
            finally:
                sock.close()
            assert reply["type"] == "error"
            assert reply["code"] == "bad_request"
            assert "unknown op 'stats'" in reply["message"]
            engine.ping()
            assert engine.stats().requests == 0


class TestLocalIsTheServiceInline:
    """``local://`` runs the serving stack's own request path on the
    calling thread: no threads of its own, the same spans, the same
    stats rows."""

    def test_local_spawns_no_threads(self, asset_paths, x0, engine_model,
                                     full_graph):
        from repro.ensemble import EnsembleRequest
        from repro.runtime import connect

        def rank_threads_gone():
            # a 4-rank asset's rank world is joined before the call returns
            return threading.active_count() == baseline

        baseline = threading.active_count()
        with connect("local://") as engine:
            engine.register_model("m", engine_model)
            engine.register_graph("g", [full_graph])
            assert rank_threads_gone()
            engine.rollout(RolloutRequest("m", "g", x0, 2))
            assert rank_threads_gone()
            engine.ensemble(EnsembleRequest("m", "g", x0, 2, n_members=3))
            assert rank_threads_gone()
            engine.train(TrainRequest("m", "g", x=x0, target=x0))
            assert rank_threads_gone()
        assert rank_threads_gone()

    def test_local_reports_the_same_spans_and_stats_rows_as_pool(
        self, asset_paths, x0
    ):
        seen = {}
        for kind in ("local", "pool"):
            request = RolloutRequest(model="m", graph="g4", x0=x0, n_steps=2)
            with make_engine(kind, asset_paths) as engine:
                engine.rollout(request)
                spans = engine.get_trace(request.trace_id)
                rows = [
                    line.split("|")[1].strip()
                    for line in engine.stats_markdown().splitlines()
                ]
            seen[kind] = ({(s.component, s.name) for s in spans}, rows)
        assert seen["local"][0] == {
            ("server", name)
            for name in ("admission", "queue", "tile", "execute")
        }
        assert seen["local"] == seen["pool"]

    def test_concurrent_local_submissions_are_safe_and_bitwise(
        self, asset_paths, x0, full_graph
    ):
        """Submitting threads may execute each other's requests (same-key
        submissions coalesce into one caller's batch); every caller
        still gets its own complete, bit-exact trajectory."""
        reference = rollout(
            load_checkpoint(asset_paths[0]), full_graph, x0, n_steps=4
        )
        with make_engine("local", asset_paths) as engine:
            outcomes = _concurrent_rollouts(engine, x0, n=8, n_steps=4)
            served = engine.stats().requests
        for outcome in outcomes:
            assert isinstance(outcome, RolloutResult), outcome
            assert_bitwise_equal(outcome.states, reference)
        assert served == 8


class TestNothingOutlivesClose:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_no_thread_or_socket_outlives_the_engine(self, kind, asset_paths,
                                                     x0):
        """After a served rollout and an abandoned stream, closing the
        engine (and its fixture's servers) leaves no thread and no
        socket behind."""
        threads, sockets = threading.active_count(), _open_sockets()
        with make_engine(kind, asset_paths) as engine:
            request = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=3)
            engine.rollout(request)
            next(engine.submit(request).frames())  # abandoned mid-stream
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline and (
            _open_sockets() > sockets or threading.active_count() > threads
        ):
            time.sleep(0.02)  # handler threads exit on their peer's EOF
        assert threading.active_count() <= threads
        assert _open_sockets() <= sockets


class TestShimsRemoved:
    def test_pre_engine_client_shims_are_gone(self):
        """The deprecated ServeClient/NetworkClient shims no longer exist."""
        import repro.serve as serve

        assert not hasattr(serve, "ServeClient")
        assert not hasattr(serve, "NetworkClient")
        assert not hasattr(serve, "NetworkRolloutHandle")
        with pytest.raises(ModuleNotFoundError):
            import repro.serve.client  # noqa: F401

    def test_pooled_engine_teardown_is_idempotent_and_leak_free(
        self, x0, engine_model, full_graph
    ):
        from repro.runtime import connect

        with connect(
            "pool://", config=ServeConfig(max_batch_size=2)
        ) as engine:
            engine.register_model("m", engine_model)
            engine.register_graph("g", [full_graph])
            result = engine.rollout(
                RolloutRequest(model="m", graph="g", x0=x0, n_steps=1)
            )
            assert len(result.states) == 2
            assert _serve_worker_threads(), "workers should be alive"
        assert not _serve_worker_threads(), (
            "context exit left serve workers running"
        )
        engine.close()  # idempotent: second close is a no-op
        engine.close()
        assert not _serve_worker_threads()


def _open_sockets():
    """Open socket descriptors of this process (Linux ``/proc``)."""
    gc.collect()  # sockets of dropped futures close with their objects
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:  # the listing's own descriptor, already closed
            pass
    return count


def _serve_worker_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("serve-worker") and t.is_alive()]


def _concurrent_rollouts(engine, x0, n, n_steps):
    """Fire ``n`` concurrent rollouts; collect results and exceptions."""
    outcomes: list = [None] * n

    def fire(i):
        try:
            outcomes[i] = engine.rollout(RolloutRequest(
                model="m", graph="g1", x0=x0, n_steps=n_steps,
            ))
        except BaseException as exc:  # noqa: BLE001 - the outcome under test
            outcomes[i] = exc

    threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes
