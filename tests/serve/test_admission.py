"""Admission control: queue caps, deadlines, shedding, wait histogram."""

import json
import math
import time

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve import (
    AdmissionStats,
    InferenceService,
    ServeConfig,
    ServeStats,
    WaitHistogram,
)
from repro.runtime.api import RolloutRequest
from repro.serve import ScheduledQueue
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    DeadlineExpired,
    QueueFull,
    RequestRejected,
)

X0 = np.zeros((5, 3))


def make_request(**kw):
    kw.setdefault("model", "m")
    kw.setdefault("graph", "g")
    kw.setdefault("x0", X0)
    kw.setdefault("n_steps", 1)
    return RolloutRequest(**kw)


class TestAdmissionConfig:
    def test_defaults_are_off(self):
        cfg = AdmissionConfig()
        assert cfg.max_queue_depth is None and cfg.default_deadline_s is None

    @pytest.mark.parametrize("kw", [
        {"max_queue_depth": 0},
        {"max_queue_depth": -1},
        {"default_deadline_s": 0.0},
        {"default_deadline_s": -2.0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            AdmissionConfig(**kw)


class TestController:
    def test_unbounded_always_admits(self):
        ctl = AdmissionController()
        for depth in (0, 10, 10_000):
            ctl.admit(depth)
        assert ctl.stats().accepted == 3

    def test_cap_sheds_with_typed_rejection(self):
        ctl = AdmissionController(AdmissionConfig(max_queue_depth=2))
        ctl.admit(0)
        ctl.admit(1)
        with pytest.raises(QueueFull, match="capacity"):
            ctl.admit(2)
        stats = ctl.stats()
        assert stats.accepted == 2 and stats.shed == 1
        assert issubclass(QueueFull, RequestRejected)

    def test_effective_deadline_resolution(self):
        ctl = AdmissionController(AdmissionConfig(default_deadline_s=0.5))
        assert ctl.effective_deadline_s(None) == 0.5
        assert ctl.effective_deadline_s(2.0) == 2.0
        assert AdmissionController().effective_deadline_s(None) is None

    def test_wait_histogram_buckets(self):
        ctl = AdmissionController()
        ctl.note_dequeued(0.0005)   # <= 1ms
        ctl.note_dequeued(0.02)     # <= 30ms
        ctl.note_dequeued(500.0)    # overflow
        hist = ctl.stats().queue_wait
        assert hist.total == 3
        assert hist.counts[0] == 1
        assert hist.counts[hist.bounds_s.index(0.03)] == 1
        assert hist.counts[-1] == 1
        assert hist.sum_s == pytest.approx(500.0205)

    def test_expired_counts_and_observes(self):
        ctl = AdmissionController()
        ctl.note_expired(0.2)
        stats = ctl.stats()
        assert stats.expired == 1 and stats.queue_wait.total == 1


class TestWaitHistogram:
    def test_quantiles(self):
        hist = AdmissionController()
        for _ in range(90):
            hist.note_dequeued(0.002)   # <= 3ms bucket
        for _ in range(10):
            hist.note_dequeued(2.0)     # <= 3s bucket
        h = hist.stats().queue_wait
        assert h.quantile(0.5) == 0.003
        assert h.quantile(0.9) == 0.003
        assert h.quantile(0.99) == 3.0

    def test_quantile_empty_and_overflow(self):
        assert WaitHistogram().quantile(0.5) == 0.0
        ctl = AdmissionController()
        ctl.note_dequeued(100.0)
        assert ctl.stats().queue_wait.quantile(0.5) == math.inf

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            WaitHistogram().quantile(0.0)

    def test_snapshot_roundtrip(self):
        """What crosses the wire is the registry snapshot; the view of
        the rebuilt registry is the view of the original."""
        metrics = MetricsRegistry()
        ctl = AdmissionController(AdmissionConfig(max_queue_depth=1), metrics)
        ctl.admit(0)
        with pytest.raises(QueueFull):
            ctl.admit(1)
        ctl.note_dequeued(0.01)
        stats = ctl.stats()
        assert isinstance(stats, AdmissionStats)
        assert (stats.accepted, stats.shed, stats.queue_wait.total) == (1, 1, 1)
        wire = json.loads(json.dumps(metrics.snapshot()))
        again = ServeStats.from_registry(MetricsRegistry.from_snapshot(wire))
        assert again.admission == stats


class TestQueueIntegration:
    def test_submit_sheds_beyond_cap(self):
        q = ScheduledQueue(AdmissionController(AdmissionConfig(max_queue_depth=2)))
        q.submit(make_request())
        q.submit(make_request())
        with pytest.raises(QueueFull):
            q.submit(make_request())
        assert q.depth() == 2

    def test_rejected_request_never_queued(self):
        ctl = AdmissionController(AdmissionConfig(max_queue_depth=1))
        q = ScheduledQueue(ctl)
        q.submit(make_request())
        with pytest.raises(QueueFull):
            q.submit(make_request())
        batch = q.next_batch(8, 0.0)
        assert len(batch) == 1
        assert ctl.stats().accepted == 1

    def test_expired_request_shed_at_dequeue(self):
        ctl = AdmissionController()
        q = ScheduledQueue(ctl)
        handle = q.submit(make_request(deadline_s=0.01))
        live = q.submit(make_request())
        time.sleep(0.05)
        batch = q.next_batch(8, 0.0)
        assert [h for _, h in batch] == [live]
        with pytest.raises(DeadlineExpired, match="deadline"):
            handle.result(timeout=1.0)
        assert ctl.stats().expired == 1

    def test_expired_matching_request_shed_during_collection(self):
        ctl = AdmissionController()
        q = ScheduledQueue(ctl)
        fresh = q.submit(make_request())
        stale = q.submit(make_request(deadline_s=0.01))
        time.sleep(0.05)
        batch = q.next_batch(8, 0.0)
        assert [h for _, h in batch] == [fresh]
        with pytest.raises(DeadlineExpired):
            stale.result(timeout=1.0)

    def test_unexpired_deadline_survives(self):
        q = ScheduledQueue(AdmissionController())
        q.submit(make_request(deadline_s=60.0))
        assert len(q.next_batch(8, 0.0)) == 1

    def test_queue_without_controller_still_sheds_expired(self):
        q = ScheduledQueue()
        handle = q.submit(make_request(deadline_s=0.01))
        time.sleep(0.05)
        q.submit(make_request())
        assert len(q.next_batch(8, 0.0)) == 1
        with pytest.raises(DeadlineExpired):
            handle.result(timeout=1.0)

    def test_all_expired_then_closed_returns_none(self):
        q = ScheduledQueue(AdmissionController())
        q.submit(make_request(deadline_s=0.01))
        time.sleep(0.05)
        q.close()
        assert q.next_batch(8, 0.0) is None

    def test_dequeued_waits_recorded(self):
        ctl = AdmissionController()
        q = ScheduledQueue(ctl)
        q.submit(make_request())
        q.submit(make_request())
        q.next_batch(8, 0.0)
        assert ctl.stats().queue_wait.total == 2


class TestRequestDeadlineFields:
    def test_deadline_validation(self):
        with pytest.raises(ValueError, match="deadline_s"):
            make_request(deadline_s=0.0)

    def test_absolute_deadline_and_expiry(self):
        req = make_request(deadline_s=10.0)
        assert req.deadline == pytest.approx(req.submitted_at + 10.0)
        assert not req.expired()
        assert req.expired(now=req.submitted_at + 11.0)

    def test_no_deadline_never_expires(self):
        req = make_request()
        assert req.deadline is None
        assert not req.expired(now=req.submitted_at + 1e9)

    def test_deadline_not_part_of_batch_key(self):
        assert make_request(deadline_s=1.0).key == make_request().key


class TestServiceIntegration:
    def test_config_exposes_admission_knobs(self):
        cfg = ServeConfig(max_queue_depth=4, default_deadline_s=0.5)
        assert cfg.admission == AdmissionConfig(4, 0.5)
        with pytest.raises(ValueError):
            ServeConfig(max_queue_depth=0)

    def test_stats_carry_admission_counters(self, serve_model, full_graph, x0):
        config = ServeConfig(max_batch_size=4, max_wait_s=0.0)
        with InferenceService(config) as svc:
            svc.register_model("m", serve_model)
            svc.register_graph("g", [full_graph])
            svc.submit(RolloutRequest("m", "g", x0, n_steps=1)).result()
            stats = svc.stats()
        assert stats.admission.accepted == 1
        assert stats.admission.shed == 0
        assert stats.admission.queue_wait.total == 1

    def test_queue_full_raised_from_submit(self, serve_model, full_graph, x0):
        config = ServeConfig(
            max_batch_size=1, max_wait_s=0.0, max_queue_depth=1, n_workers=1
        )
        svc = InferenceService(config)
        svc.register_model("m", serve_model)
        svc.register_graph("g", [full_graph])
        # not started: no worker drains the queue, so depth is stable
        svc._started = True
        svc.submit(RolloutRequest("m", "g", x0, n_steps=1))
        with pytest.raises(QueueFull):
            svc.submit(RolloutRequest("m", "g", x0, n_steps=1))
        shed = svc.stats().admission.shed
        assert shed == 1

    def test_default_deadline_applied_and_overridable(
        self, serve_model, full_graph, x0
    ):
        config = ServeConfig(default_deadline_s=30.0)
        svc = InferenceService(config)
        svc.register_model("m", serve_model)
        svc.register_graph("g", [full_graph])
        svc._started = True
        h1 = svc.submit(RolloutRequest("m", "g", x0, n_steps=1))
        h2 = svc.submit(
            RolloutRequest("m", "g", x0, n_steps=1, deadline_s=5.0)
        )
        assert h1.request.deadline_s == 30.0
        assert h2.request.deadline_s == 5.0
