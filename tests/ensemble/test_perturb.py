"""Determinism and composition of the per-member perturbations."""

import numpy as np
import pytest

from repro.ensemble.api import PerturbationSpec
from repro.ensemble.perturb import member_rng, perturb_member, perturb_members
from repro.serve.protocol import from_wire, to_wire

X0 = np.random.default_rng(5).standard_normal((6, 3))


class TestDeterminism:
    def test_same_seed_and_member_reproduce_bitwise(self):
        spec = PerturbationSpec(seed=42, noise_scale=0.1)
        a = perturb_member(X0, spec, 3)
        b = perturb_member(X0, spec, 3)
        assert a.tobytes() == b.tobytes()

    def test_members_are_individually_constructible(self):
        """Member m needs no draws for members 0..m-1 (chunk contract)."""
        spec = PerturbationSpec(seed=7, noise_scale=0.5)
        whole = perturb_members(X0, spec, range(8))
        chunk = perturb_members(X0, spec, range(4, 8))
        for got, expect in zip(chunk, whole[4:]):
            assert got.tobytes() == expect.tobytes()

    def test_distinct_members_draw_distinct_noise(self):
        spec = PerturbationSpec(seed=0, noise_scale=1.0)
        a = perturb_member(X0, spec, 0)
        b = perturb_member(X0, spec, 1)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_draw_distinct_noise(self):
        a = perturb_member(X0, PerturbationSpec(seed=1, noise_scale=1.0), 0)
        b = perturb_member(X0, PerturbationSpec(seed=2, noise_scale=1.0), 0)
        assert not np.array_equal(a, b)

    def test_rng_streams_are_independent_spawns(self):
        a = member_rng(9, 0).standard_normal(4)
        b = member_rng(9, 1).standard_normal(4)
        assert not np.array_equal(a, b)


class TestComposition:
    def test_no_perturbation_copies_the_base_state(self):
        out = perturb_member(X0, PerturbationSpec(), 0)
        assert out.tobytes() == X0.astype(np.float64).tobytes()
        assert out is not X0

    def test_sweep_scales_before_noise(self):
        spec = PerturbationSpec(seed=3, noise_scale=0.25, sweep=(0.5, 2.0))
        noise = member_rng(3, 1).standard_normal(X0.shape)
        expect = X0 * 2.0 + 0.25 * noise
        got = perturb_member(X0, spec, 1)
        assert got.tobytes() == expect.tobytes()

    def test_pure_sweep_is_exact_scaling(self):
        spec = PerturbationSpec(sweep=(1.0, 3.0, 0.0))
        assert perturb_member(X0, spec, 0).tobytes() == X0.tobytes()
        assert perturb_member(X0, spec, 1).tobytes() == (X0 * 3.0).tobytes()
        assert np.all(perturb_member(X0, spec, 2) == 0.0)

    def test_output_is_float64(self):
        out = perturb_member(
            X0.astype(np.float32), PerturbationSpec(noise_scale=0.1), 0
        )
        assert out.dtype == np.float64


class TestSpecValidation:
    def test_negative_noise_scale_rejected(self):
        with pytest.raises(ValueError, match="noise_scale"):
            PerturbationSpec(noise_scale=-0.1)

    def test_non_finite_sweep_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PerturbationSpec(sweep=(1.0, float("nan")))

    def test_dict_roundtrip(self):
        spec = PerturbationSpec(seed=11, noise_scale=0.5, sweep=(1.0, 2.0))
        assert from_wire(PerturbationSpec, to_wire(spec)) == spec
