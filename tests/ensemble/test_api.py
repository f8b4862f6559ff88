"""EnsembleRequest front-door validation, chunking, and wire roundtrip.

Satellite coverage for the typed-validation contract: every degenerate
shape is a ``ValueError`` at construction, which the wire layer maps to
``bad_request`` — a degenerate ensemble never reaches a queue.
"""

import numpy as np
import pytest

from repro.ensemble.api import (
    EnsembleRequest,
    PerturbationSpec,
    SummaryFrame,
)
from repro.ensemble.stability import StabilityConfig
from repro.serve import protocol

X0 = np.random.default_rng(8).standard_normal((5, 3))


def request(**kw):
    base = dict(model="m", graph="g", x0=X0, n_steps=3, n_members=4)
    base.update(kw)
    return EnsembleRequest(**base)


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_members=0),
            dict(n_members=-1),
            dict(n_steps=0),
            dict(precision="float16"),
            dict(deadline_s=0.0),
            dict(trace_id=""),
            dict(summaries=("mean", "median")),
            dict(summaries=()),  # no summaries AND no members
            dict(quantiles=(0.5, 1.5)),
            dict(summaries=("quantiles",), quantiles=()),
            dict(member_range=(2, 2)),
            dict(member_range=(-1, 2)),
            dict(member_range=(0, 5)),
            dict(perturbation=PerturbationSpec(sweep=(1.0, 2.0))),
            dict(perturbation={"seed": 1}),
            dict(x0=np.zeros(5)),
        ],
    )
    def test_degenerate_requests_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            request(**bad)

    def test_negative_noise_scale_rejected_in_spec(self):
        with pytest.raises(ValueError, match="noise_scale"):
            request(perturbation=PerturbationSpec(noise_scale=-1.0))

    def test_empty_summaries_allowed_with_return_members(self):
        r = request(summaries=(), return_members=True)
        assert r.summaries == ()

    def test_x0_canonicalized_to_float64(self):
        r = request(x0=X0.astype(np.float32))
        assert r.x0.dtype == np.float64


class TestMembersAndChunks:
    def test_members_span_the_ensemble_by_default(self):
        assert list(request().members) == [0, 1, 2, 3]

    def test_member_range_restricts_members(self):
        r = request(member_range=(1, 3))
        assert list(r.members) == [1, 2]

    def test_chunk_streams_raw_members_only(self):
        r = request(stability=StabilityConfig())
        c = r.chunk(1, 3)
        assert c.summaries == ()
        assert c.return_members
        assert c.stability is None
        assert c.member_range == (1, 3)
        assert c.trace_id == r.trace_id
        assert c.request_id != r.request_id

    def test_member_request_is_the_perturbed_rollout(self):
        from repro.ensemble.perturb import perturb_member

        r = request(perturbation=PerturbationSpec(seed=5, noise_scale=0.1))
        member = r.member_request(2)
        expect = perturb_member(r.x0, r.perturbation, 2)
        assert member.x0.tobytes() == expect.tobytes()
        assert member.n_steps == r.n_steps
        assert member.trace_id == r.trace_id

    def test_member_requests_respect_chunk_range(self):
        r = request(member_range=(2, 4))
        reqs = r.member_requests()
        assert len(reqs) == 2
        full = request(
            trace_id=r.trace_id,
            perturbation=r.perturbation,
        )
        assert reqs[0].x0.tobytes() == full.member_request(2).x0.tobytes()

    def test_resolved_fills_engine_defaults(self):
        r = request()
        done = r.resolved(30.0)
        assert done.halo_mode == "n-a2a"
        assert done.deadline_s == 30.0
        assert done.resolved(1.0) is done  # already complete


class TestWireRoundtrip:
    def roundtrip(self, r):
        header, arrays = protocol.stream_message("ensemble", r)
        return protocol.parse_stream_message(EnsembleRequest, header, arrays)

    def test_roundtrip_preserves_the_request(self):
        r = request(
            perturbation=PerturbationSpec(seed=3, noise_scale=0.2,
                                          sweep=(1.0, 2.0, 3.0, 4.0)),
            summaries=("mean", "quantiles"),
            quantiles=(0.1, 0.9),
            return_members=True,
            stability=StabilityConfig(max_energy_ratio=10.0, max_value=4.0),
            member_range=(1, 4),
            halo_mode="n-a2a",
            deadline_s=12.0,
        )
        back = self.roundtrip(r)
        assert back.model == r.model and back.graph == r.graph
        assert back.x0.tobytes() == r.x0.tobytes()
        assert back.n_steps == r.n_steps
        assert back.n_members == r.n_members
        assert back.perturbation == r.perturbation
        assert back.summaries == r.summaries
        assert back.quantiles == r.quantiles
        assert back.return_members == r.return_members
        assert back.stability == r.stability
        assert back.member_range == r.member_range
        assert back.halo_mode == r.halo_mode
        assert back.deadline_s == r.deadline_s
        assert back.trace_id == r.trace_id

    def test_none_stability_survives(self):
        assert self.roundtrip(request()).stability is None

    def test_degenerate_wire_header_is_value_error(self):
        header, arrays = protocol.stream_message("ensemble", request())
        header["n_members"] = 0
        with pytest.raises(ValueError):
            protocol.parse_stream_message(EnsembleRequest, header, arrays)

    def test_missing_field_is_value_error(self):
        header, arrays = protocol.stream_message("ensemble", request())
        del header["model"]
        with pytest.raises(ValueError):
            protocol.parse_stream_message(EnsembleRequest, header, arrays)

    def test_wrong_array_count_is_value_error(self):
        header, _ = protocol.stream_message("ensemble", request())
        with pytest.raises(ValueError, match="exactly one array"):
            protocol.parse_stream_message(EnsembleRequest, header, [])

    def test_summary_frame_roundtrip(self):
        frame = SummaryFrame(
            step=2, n_members=3,
            summaries={"mean": X0, "variance": X0 * 0.5},
            energy=np.array([1.0, 2.0, 3.0]),
            divergence=0.25,
            members=(X0, X0 * 2.0, X0 * 3.0),
        )
        back = protocol.parse_summary_frame(
            *protocol.summary_frame_message(frame)
        )
        assert back.step == frame.step
        assert back.n_members == frame.n_members
        assert sorted(back.summaries) == sorted(frame.summaries)
        for name in frame.summaries:
            assert back.summaries[name].tobytes() == (
                frame.summaries[name].tobytes()
            )
        assert back.energy.tobytes() == frame.energy.tobytes()
        assert back.divergence == frame.divergence
        assert len(back.members) == 3
        for a, b in zip(back.members, frame.members):
            assert a.tobytes() == b.tobytes()

    def test_frame_bytes_flat_in_m_without_members(self):
        """The wire-cost bound: summary payload independent of M."""
        import io

        def frame_bytes(m):
            frame = SummaryFrame(
                step=0, n_members=m,
                summaries={"mean": X0, "variance": X0},
                energy=np.zeros(3), divergence=0.0,
            )
            buf = io.BytesIO()
            protocol.write_message(
                buf, *protocol.summary_frame_message(frame)
            )
            return buf.tell()

        # identical array payload; only the header's n_members digits
        # may differ (a few bytes, not O(M) arrays)
        assert abs(frame_bytes(2) - frame_bytes(64)) <= 8
