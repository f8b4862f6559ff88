"""Blow-up detection and the stability record."""

import numpy as np
import pytest

from repro.ensemble.reduce import energy_summary, kinetic_energy
from repro.ensemble.stability import (
    BlowUp,
    StabilityConfig,
    StabilityReport,
    StabilityTracker,
)
from repro.serve.protocol import from_wire, to_wire


def observe(tracker, step, values):
    values = np.asarray(values, dtype=np.float64)
    energies = kinetic_energy(values)
    return tracker.observe(
        step, values, energies, energy_summary(energies), 0.0
    )


def members(*scales):
    """An (M, 2, 1) stack with per-member amplitude."""
    return np.array([[[s], [s]] for s in scales], dtype=np.float64)


class TestConfigValidation:
    def test_energy_ratio_must_exceed_one(self):
        with pytest.raises(ValueError, match="max_energy_ratio"):
            StabilityConfig(max_energy_ratio=1.0)

    def test_max_value_must_be_positive(self):
        with pytest.raises(ValueError, match="max_value"):
            StabilityConfig(max_value=0.0)

    def test_dict_roundtrip(self):
        cfg = StabilityConfig(max_energy_ratio=50.0, max_value=9.0,
                              early_stop=False)
        assert from_wire(StabilityConfig, to_wire(cfg)) == cfg


class TestDetection:
    def test_non_finite_trips_with_infinite_ratio(self):
        tracker = StabilityTracker(StabilityConfig(), n_members=2)
        assert observe(tracker, 0, members(1.0, 1.0)) is None
        blow = observe(tracker, 1, members(np.nan, 1.0))
        assert blow == BlowUp(1, 0, "non_finite", float("inf"))

    def test_energy_growth_trips_against_own_initial(self):
        tracker = StabilityTracker(
            StabilityConfig(max_energy_ratio=4.0), n_members=2
        )
        observe(tracker, 0, members(1.0, 10.0))
        # member 1 grows 1.5x (fine); member 0 grows 9x in energy
        blow = observe(tracker, 1, members(3.0, 15.0))
        assert blow is not None
        assert blow.reason == "energy_growth"
        assert blow.member == 0
        assert blow.energy_ratio == pytest.approx(9.0)

    def test_value_bound_trips_on_amplitude(self):
        tracker = StabilityTracker(
            StabilityConfig(max_energy_ratio=None, max_value=5.0), n_members=1
        )
        observe(tracker, 0, members(1.0))
        blow = observe(tracker, 1, members(6.0))
        assert blow is not None and blow.reason == "value_bound"

    def test_none_config_records_but_never_trips(self):
        tracker = StabilityTracker(None, n_members=1)
        observe(tracker, 0, members(1.0))
        assert observe(tracker, 1, members(np.inf)) is None
        report = tracker.report()
        assert report.stable
        assert report.n_frames == 2

    def test_detection_reports_first_blow_up_only(self):
        tracker = StabilityTracker(StabilityConfig(), n_members=1)
        observe(tracker, 0, members(1.0))
        first = observe(tracker, 1, members(np.nan))
        assert first is not None
        assert observe(tracker, 2, members(np.nan)) is None
        assert tracker.blow_up == first

    def test_zero_initial_energy_does_not_divide_by_zero(self):
        tracker = StabilityTracker(StabilityConfig(), n_members=1)
        observe(tracker, 0, members(0.0))
        blow = observe(tracker, 1, members(1.0))
        assert blow is not None and blow.reason == "energy_growth"
        assert np.isfinite(blow.energy_ratio)


class TestReport:
    def test_report_shapes_are_m_independent(self):
        tracker = StabilityTracker(None, n_members=7)
        for step in range(3):
            observe(tracker, step, members(*([1.0] * 7)))
        report = tracker.report()
        assert report.energy.shape == (3, 3)
        assert report.divergence.shape == (3,)

    def test_early_stop_is_recorded(self):
        tracker = StabilityTracker(StabilityConfig(), n_members=1)
        observe(tracker, 0, members(1.0))
        observe(tracker, 1, members(np.nan))
        tracker.note_early_stop()
        report = tracker.report()
        assert report.early_stopped
        assert not report.stable

    def test_dict_roundtrip_preserves_record(self):
        tracker = StabilityTracker(StabilityConfig(), n_members=2)
        observe(tracker, 0, members(1.0, 2.0))
        observe(tracker, 1, members(np.nan, 2.0))
        report = tracker.report()
        back = from_wire(StabilityReport, to_wire(report))
        assert back.energy.tobytes() == report.energy.tobytes()
        assert back.divergence.tobytes() == report.divergence.tobytes()
        assert back.blow_up == report.blow_up
        assert back.early_stopped == report.early_stopped

    def test_empty_report_roundtrip(self):
        back = from_wire(StabilityReport, to_wire(StabilityReport()))
        assert back.energy.shape == (0, 3)
        assert back.n_frames == 0
        assert back.stable
