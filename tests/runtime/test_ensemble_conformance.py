"""Ensemble conformance: the ``ensemble`` op behaves identically on
every engine kind.

The contract, asserted over ``local://``, ``pool://``, ``tcp://``, and
``cluster://`` with path-identical assets:

* summary frames (all selected statistics, the energy record, the
  divergence) are **bitwise identical across engines** — reduction
  happens in float64 member order everywhere, wherever it runs
  (inline, service thread, server, cluster router);
* each member's trajectory is **bitwise identical to a direct
  ``rollout()``** of its perturbed initial state on the same engine —
  the tiling contract extends to ensembles;
* degenerate requests (M=0, zero steps, negative noise) are typed
  ``ValueError``\\ s at construction, and a degenerate *wire* message is
  a ``bad_request`` — on every engine kind, nothing reaches a queue;
* ensembles land in the stats table and metrics registry
  (``repro_ensemble_*``) wherever a service executed members.
"""

import socket

import numpy as np
import pytest

from repro.ensemble.api import EnsembleRequest, PerturbationSpec
from repro.ensemble.stability import StabilityConfig
from repro.serve import ServeConfig, protocol
from tests.runtime.conftest import ENGINE_KINDS, make_engine

N_MEMBERS = 5
SUMMARIES = ("mean", "variance", "min", "max", "quantiles")


def request(x0, graph="g1", n_steps=3, **kw):
    kw.setdefault("summaries", SUMMARIES)
    kw.setdefault("quantiles", (0.1, 0.9))
    kw.setdefault("perturbation", PerturbationSpec(seed=13, noise_scale=1e-3))
    return EnsembleRequest(
        model="m", graph=graph, x0=x0, n_steps=n_steps,
        n_members=N_MEMBERS, **kw
    )


@pytest.fixture(scope="module")
def reference(asset_paths, x0):
    """The local engine's frames: the cross-engine comparison baseline."""
    with make_engine("local", asset_paths) as engine:
        result = engine.ensemble(request(x0, return_members=True))
    assert result.n_frames == 4
    return result


class TestCrossEngineIdentity:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_summary_frames_bitwise_identical_across_engines(
        self, kind, asset_paths, x0, reference
    ):
        with make_engine(kind, asset_paths) as engine:
            result = engine.ensemble(request(x0, return_members=True))
        assert result.n_frames == reference.n_frames
        for got, ref in zip(result.frames, reference.frames):
            assert got.n_members == N_MEMBERS
            for name in SUMMARIES:
                assert got.summaries[name].tobytes() == (
                    ref.summaries[name].tobytes()
                ), f"{kind}: summary {name!r} diverged at step {got.step}"
            assert got.energy.tobytes() == ref.energy.tobytes()
            assert np.float64(got.divergence).tobytes() == (
                np.float64(ref.divergence).tobytes()
            )
        assert result.stability.energy.tobytes() == (
            reference.stability.energy.tobytes()
        )
        assert result.stability.divergence.tobytes() == (
            reference.stability.divergence.tobytes()
        )

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_members_bitwise_identical_to_direct_rollouts(
        self, kind, asset_paths, x0
    ):
        req = request(x0, return_members=True)
        with make_engine(kind, asset_paths) as engine:
            result = engine.ensemble(req)
            for m in range(N_MEMBERS):
                direct = engine.rollout(req.member_request(m))
                trajectory = result.member_trajectory(m)
                assert len(direct.states) == len(trajectory)
                for a, b in zip(direct.states, trajectory):
                    assert a.tobytes() == b.tobytes(), (
                        f"{kind}: member {m} diverged from its direct rollout"
                    )

    def test_distributed_graph_members_match_direct_rollouts(
        self, asset_paths, x0
    ):
        """The tiling contract holds on multi-rank assets too."""
        req = request(x0, graph="g4", return_members=True)
        with make_engine("local", asset_paths) as engine:
            result = engine.ensemble(req)
            direct = engine.rollout(req.member_request(2))
        for a, b in zip(direct.states, result.member_trajectory(2)):
            assert a.tobytes() == b.tobytes()


class TestValidationEverywhere:
    @pytest.mark.parametrize(
        "bad",
        [dict(n_members=0), dict(n_steps=0)],
        ids=["zero-members", "zero-steps"],
    )
    def test_degenerate_requests_never_construct(self, x0, bad):
        kw = dict(model="m", graph="g1", x0=x0, n_steps=3,
                  n_members=N_MEMBERS)
        kw.update(bad)
        with pytest.raises(ValueError):
            EnsembleRequest(**kw)

    def test_negative_noise_never_constructs(self):
        with pytest.raises(ValueError, match="noise_scale"):
            PerturbationSpec(noise_scale=-1e-3)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_unknown_assets_are_typed_on_every_engine(
        self, kind, asset_paths, x0
    ):
        with make_engine(kind, asset_paths) as engine:
            with pytest.raises(Exception):
                engine.ensemble(request(x0, graph="nope"))

    def test_degenerate_wire_message_is_bad_request(self, asset_paths, x0):
        """A raw wire header with M=0 answers ``bad_request``, pre-queue."""
        with make_engine("tcp", asset_paths) as engine:
            header, arrays = protocol.stream_message("ensemble", request(x0))
            header["n_members"] = 0
            with socket.create_connection(
                (engine.host, engine.port), timeout=10
            ) as sock:
                stream = sock.makefile("rwb")
                protocol.write_message(stream, header, arrays)
                reply, _ = protocol.read_message(stream)
            assert reply["type"] == "error"
            assert reply["code"] == protocol.ERR_BAD_REQUEST


class TestObservability:
    def test_ensembles_land_in_stats_and_metrics(self, asset_paths, x0):
        config = ServeConfig(max_batch_size=4, max_wait_s=0.0)
        with make_engine("pool", asset_paths, config) as engine:
            engine.ensemble(request(x0))
            stats = engine.stats()
            assert stats.ensemble_requests == 1
            assert stats.ensemble_members == N_MEMBERS
            assert stats.ensemble_chunks >= 1
            text = engine.metrics_text()
            assert "repro_ensemble_requests_total 1" in text
            assert f"repro_ensemble_members_total {N_MEMBERS}" in text
            markdown = engine.stats_markdown()
            assert "ensembles" in markdown

    def test_trace_carries_perturb_and_reduce_spans(self, asset_paths, x0):
        req = request(x0)
        with make_engine("pool", asset_paths) as engine:
            engine.ensemble(req)
            names = {s.name for s in engine.get_trace(req.trace_id)}
        assert "perturb" in names
        assert "reduce" in names

    def test_cluster_routes_chunks_across_shards(self, asset_paths, x0):
        req = request(x0, return_members=True)
        with make_engine("cluster", asset_paths) as engine:
            result = engine.ensemble(req)
            assert result.n_frames == 4
            cs = engine.cluster_stats()
            assert cs.accepted == cs.completed + cs.failed
            assert sum(s.routed for s in cs.shards) >= 2  # chunk fan-out
            names = {s.name for s in engine.get_trace(req.trace_id)}
        assert "route" in names
        assert "reduce" in names

    def test_early_stopped_cluster_ensemble_leaves_no_open_sockets(
        self, asset_paths, x0
    ):
        """Early-stop aborts the chunk streams mid-flight; each chunk's
        connection must be closed then (unread frames are still in
        flight on it), not parked on the dead future."""
        sweep = (1.0,) * (N_MEMBERS - 1) + (1e8,)  # last member blows up
        req = request(
            x0, n_steps=6,
            perturbation=PerturbationSpec(seed=13, sweep=sweep),
            stability=StabilityConfig(max_value=1e6),
        )
        with make_engine("cluster", asset_paths) as engine:
            future = engine.submit(req)
            result = future.result()
            assert result.stability.early_stopped
            assert result.n_frames < 7
            chunks = [stream.inner for stream in future._streams]
            assert len(chunks) == 2
            for inner in chunks:
                assert inner.done
                assert inner._conn.sock.fileno() == -1, (
                    "an aborted chunk stream kept its socket open"
                )
            # the shards' pools are intact: the next request just dials
            assert engine.ensemble(request(x0)).n_frames == 4
