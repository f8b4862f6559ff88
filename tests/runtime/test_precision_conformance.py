"""Precision conformance: the float32 tier behaves identically everywhere.

The fast-math tier's contract, asserted over every engine kind with
path-identical assets:

* ``precision="float64"`` (the default) stays **bitwise identical** to
  the pre-tier behavior on every engine (that the fused path serves
  the reference op chain's bits is
  ``test_engine_conformance.py::test_single_rank_matches_direct_rollout``);
* ``precision="float32"`` produces float32 frames end-to-end (the wire
  preserves dtype) that are **bitwise identical across engines** —
  bounded error vs float64, but still deterministic;
* every engine serves the tier (there is no capability to ask for);
* cluster failover redrives a float32 request *at the same precision*
  and replays the already-streamed frames bitwise;
* mixed-precision requests never tile into one batch:
  :class:`~repro.runtime.api.BatchKey` carries the precision.
"""

import dataclasses

import numpy as np
import pytest

from repro.runtime import RolloutRequest
from repro.runtime.api import BatchKey
from tests.runtime.conftest import ENGINE_KINDS, make_engine

PRECISIONS = ("float64", "float32")


def assert_bitwise_equal(a, b, dtype=np.float64):
    """Bitwise trajectory equality at either precision (uint views)."""
    bits = {np.float64: np.uint64, np.float32: np.uint32}[dtype]
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype == dtype
        assert np.array_equal(x.view(bits), y.view(bits))


def request(graph="g1", n_steps=3, **kw):
    def build(x0):
        return RolloutRequest(model="m", graph=graph, x0=x0,
                              n_steps=n_steps, **kw)
    return build


class TestRequestSurface:
    def test_precision_validated_at_construction(self, x0):
        with pytest.raises(ValueError, match="precision"):
            RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1,
                           precision="float16")

    def test_default_precision_is_canonical_float64(self, x0):
        r = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
        assert r.precision == "float64"

    def test_batch_key_separates_precisions(self, x0):
        """Mixed-precision requests must never share a tile: the batch
        key differs on precision alone."""
        f64 = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
        f32 = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1,
                             precision="float32")
        assert f64.key != f32.key
        assert f64.key == dataclasses.replace(f32.key, precision="float64")
        assert isinstance(f64.key, BatchKey)


class TestFloat64Unchanged:
    """Naming the default precision must not move a served bit."""

    def test_explicit_float64_equals_the_default(self, any_engine, x0):
        default = any_engine.rollout(request()(x0)).states
        explicit = any_engine.rollout(
            request(precision="float64")(x0)
        ).states
        assert_bitwise_equal(default, explicit)


class TestFloat32Tier:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_frames_carry_the_requested_dtype(self, any_engine, x0,
                                              precision):
        dtype = {"float64": np.float64, "float32": np.float32}[precision]
        result = any_engine.rollout(request(precision=precision)(x0))
        assert len(result.states) == 4
        assert all(s.dtype == dtype for s in result.states)

    @pytest.mark.parametrize("graph_key", ["g1", "g4"])
    def test_f32_trajectories_agree_bitwise_across_engines(
        self, asset_paths, x0, graph_key
    ):
        """Bounded error vs f64, but still deterministic: every engine
        serves the *same* float32 bits (same partitioning)."""
        req = request(graph=graph_key, precision="float32")(x0)
        trajectories = {}
        for kind in ENGINE_KINDS:
            with make_engine(kind, asset_paths) as engine:
                trajectories[kind] = engine.rollout(req).states
        for kind in ENGINE_KINDS[1:]:
            assert_bitwise_equal(
                trajectories[ENGINE_KINDS[0]], trajectories[kind],
                dtype=np.float32,
            )

    def test_f32_stays_within_the_committed_bound(self, asset_paths, x0):
        from repro.perf.numerics import (
            F32_REL_ERROR_BOUND,
            per_step_relative_error,
        )

        with make_engine("local", asset_paths) as engine:
            f64 = engine.rollout(request(n_steps=4)(x0)).states
            f32 = engine.rollout(
                request(n_steps=4, precision="float32")(x0)
            ).states
        errors = per_step_relative_error(f32, f64)
        assert max(errors) <= F32_REL_ERROR_BOUND

    def test_f32_requests_never_disturb_f64_bits(self, any_engine, x0):
        """The cast replica is private: serving the f32 tier must not
        recast or mutate the registered f64 model."""
        before = any_engine.rollout(request()(x0)).states
        any_engine.rollout(request(precision="float32")(x0))
        after = any_engine.rollout(request()(x0)).states
        assert_bitwise_equal(before, after)

    def test_interleaved_precisions_batch_separately(self, asset_paths, x0):
        """Concurrent f32 and f64 submissions on one pooled engine each
        come back at their own precision, bitwise equal to a solo run
        — possible only if the batcher never tiled them together."""
        with make_engine("pool", asset_paths) as engine:
            solo64 = engine.rollout(request()(x0)).states
            solo32 = engine.rollout(request(precision="float32")(x0)).states
            futures = [
                engine.submit(request()(x0)),
                engine.submit(request(precision="float32")(x0)),
                engine.submit(request()(x0)),
                engine.submit(request(precision="float32")(x0)),
            ]
            results = [f.result(timeout=60.0) for f in futures]
        assert_bitwise_equal(results[0].states, solo64)
        assert_bitwise_equal(results[2].states, solo64)
        assert_bitwise_equal(results[1].states, solo32, dtype=np.float32)
        assert_bitwise_equal(results[3].states, solo32, dtype=np.float32)


class TestClusterFailover:
    """Scripted shards: a float32 request survives a redrive intact."""

    def _cluster(self, shards):
        from repro.cluster import ClusterEngine

        return ClusterEngine(shards, health_interval_s=None)

    def test_redrive_preserves_precision_and_replays_bitwise(self, x0):
        from tests.cluster.conftest import ScriptedEngine, frame_value

        shards = {"shard-a": ScriptedEngine("shard-a"),
                  "shard-b": ScriptedEngine("shard-b")}
        cluster = self._cluster(shards)
        try:
            req = request(n_steps=4, precision="float32")(x0)
            primary = cluster.place(req.model, req.graph)
            survivor = next(s for s in shards if s != primary)
            shards[primary].fail_after_frames = 2  # dies before frame 2
            frames = list(cluster.stream(req))
            assert [f.step for f in frames] == [0, 1, 2, 3, 4]
            # the redriven submission carries the original precision
            redriven = shards[survivor].submitted
            assert len(redriven) == 1
            assert redriven[0].precision == "float32"
            assert redriven[0].request_id == req.request_id
            # replayed frames are the redriven shard's bits, replayed
            # exactly (the scripted backend synthesizes per-step values)
            for f in frames:
                np.testing.assert_array_equal(f.state, frame_value(f.step))
            assert cluster.cluster_stats().redrives == 1
        finally:
            cluster.close()
