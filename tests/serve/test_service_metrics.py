"""The service records into one registry: bounded, untorn, restart-proof."""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro.gnn import GNNConfig, MeshGNN
from repro.graph import build_full_graph
from repro.mesh import BoxMesh
from repro.runtime.api import RolloutRequest
from repro.serve import (
    DeadlineExpired,
    InferenceService,
    RequestMetrics,
    ServeConfig,
    ServeStats,
)

TINY = GNNConfig(hidden=4, n_message_passing=1, n_mlp_hidden=0, seed=5)


@pytest.fixture(scope="module")
def tiny_graph():
    return build_full_graph(BoxMesh(2, 2, 2, p=1))


@pytest.fixture(scope="module")
def tiny_x0(tiny_graph):
    return np.zeros((tiny_graph.n_local, 3))


def make_service(tiny_graph, **config) -> InferenceService:
    svc = InferenceService(ServeConfig(**config))
    svc.register_model("m", MeshGNN(TINY))
    svc.register_model("m2", MeshGNN(TINY))
    svc.register_graph("g", [tiny_graph])
    return svc


def sample_count(svc: InferenceService) -> int:
    return sum(
        len(entry["samples"])
        for entry in svc.metrics_registry().snapshot().values()
    )


def live_request_metrics() -> int:
    # to a fixed point: a stream some earlier test abandoned mid-way is
    # closed by the collector, and what its generators drop on the way
    # out (the handles' per-request records) only goes in the next pass
    while gc.collect():
        pass
    return sum(isinstance(o, RequestMetrics) for o in gc.get_objects())


class TestNothingGrowsWithHistory:
    """Satellite fix: the server used to keep every RequestMetrics it
    ever produced, and a scrape replayed them all."""

    def test_served_requests_are_summed_not_retained(self, tiny_graph,
                                                     tiny_x0):
        svc = make_service(tiny_graph, max_wait_s=0.0)
        before = live_request_metrics()

        def serve(n):
            for _ in range(n):
                handle = svc._serve_inline(RolloutRequest("m", "g", tiny_x0, 1))
                assert handle.metrics.batch_size == 1
                del handle

        serve(10)
        after_10 = sample_count(svc)
        assert live_request_metrics() == before
        serve(990)
        assert svc.stats().requests == 1000
        assert live_request_metrics() == before, (
            "the service still references per-request records"
        )
        assert sample_count(svc) == after_10, (
            "a scrape's size grows with the number of requests served"
        )


class TestNoTornView:
    def test_stats_under_load_are_one_instant(self, tiny_graph, tiny_x0):
        """Submitters + workers + a reader hammering stats(): every
        view is internally consistent (the grouped updates never show
        half-applied)."""
        max_batch = 4
        svc = make_service(
            tiny_graph, max_batch_size=max_batch, max_wait_s=0.001,
            n_workers=3,
        )
        stop = threading.Event()
        outcomes = {"served": 0, "expired": 0}
        lock = threading.Lock()

        def submitter(i):
            model = "m" if i % 2 else "m2"
            while not stop.is_set():
                # every third request carries a deadline the queue will
                # often miss, so the expiry paths run too
                deadline = 1e-4 if i % 3 == 0 else None
                handle = svc.submit(
                    RolloutRequest(model, "g", tiny_x0, 1, deadline_s=deadline)
                )
                try:
                    handle.result(timeout=30.0)
                    key = "served"
                except DeadlineExpired:
                    key = "expired"
                with lock:
                    outcomes[key] += 1

        violations = []

        def check(registry):
            with registry.atomic():  # the view and the raw reads: one instant
                s = ServeStats.from_registry(registry)
                per_key = registry.counter("repro_requests_total").samples()
                n2 = registry.counter("repro_request_batch_size_total").total()
            adm, sched = s.admission, s.scheduler
            wait = adm.queue_wait
            dispatched = sum(h.total for h in sched.lane_wait.values())
            for ok, what in (
                (adm.expired_at_close <= adm.expired, "at-close ⊂ expired"),
                (wait.total == sum(wait.counts), "histogram count/sum"),
                (wait.total == dispatched + adm.expired,
                 "every queue exit is a dispatch or an expiry"),
                (sched.dispatches <= dispatched <= sched.dispatches * max_batch,
                 "a dispatch lands with its waits"),
                (s.requests == sum(per_key.values()), "Σ per-(model, graph)"),
                (s.batches <= s.requests <= s.batches * max_batch,
                 "a batch lands with its requests"),
                (s.requests <= n2 <= s.requests * max_batch,
                 "a batch lands with its size sum"),
                (s.batches <= sched.dispatches, "executed ≤ dispatched"),
                (adm.accepted >= wait.total, "left the queue ≤ entered it"),
                (sched.lane_depth_high_water <= s.queue_depth_high_water,
                 "lane peak ≤ total peak"),
            ):
                if not ok:
                    violations.append((what, s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [
            threading.Thread(target=submitter, args=(i,)) for i in range(6)
        ]
        try:
            svc.start()
            for t in threads:
                t.start()
            deadline = time.perf_counter() + 2.0
            reads = 0
            while time.perf_counter() < deadline:
                check(svc.metrics_registry())
                # the live registry read in place takes no owner lock: only
                # the grouped updates stand between it and a torn view
                check(svc._metrics)
                reads += 2
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
            svc.stop()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not violations, violations[0]
        assert reads > 20
        final = svc.stats()
        assert final.requests == outcomes["served"] > 0
        assert final.admission.expired == outcomes["expired"]
        assert final.queue_depth == 0


class TestStatsSpanRestarts:
    def test_stop_start_keeps_every_counter_and_high_water(self, tiny_graph,
                                                           tiny_x0):
        svc = make_service(tiny_graph, max_batch_size=2, max_wait_s=0.0)
        # pile up a backlog before any worker runs, so the peaks are
        # known: 5 pending in total, 3 in the deepest lane
        handles = [
            svc._submit(RolloutRequest(model, "g", tiny_x0, 1))
            for model in ("m", "m", "m", "m2", "m2")
        ]
        svc.start()
        for h in handles:
            h.result(timeout=30.0)
        svc.stop()
        first = svc.stats()
        assert first.requests == 5
        assert first.queue_depth_high_water == 5
        assert first.scheduler.lane_depth_high_water == 3
        assert first.scheduler.dispatches == first.batches >= 3

        svc.start()  # a fresh queue; the registry carries on
        svc.submit(RolloutRequest("m", "g", tiny_x0, 1)).result()
        svc.stop()
        second = svc.stats()
        assert second.requests == 6
        assert second.batches == first.batches + 1
        assert second.scheduler.dispatches == first.scheduler.dispatches + 1
        assert second.admission.accepted == 6
        assert second.admission.queue_wait.total == 6
        assert second.queue_depth_high_water == 5
        assert second.scheduler.lane_depth_high_water == 3
        assert second.max_batch_size == first.max_batch_size
        assert second.max_latency_s >= first.max_latency_s
        assert second.scheduler.warm_key_batches >= first.scheduler.warm_key_batches
        assert second.registry.loads == first.registry.loads == 2
        assert sum(
            h.total for h in second.scheduler.lane_wait.values()
        ) == 6
        # the drained first queue's lanes read 0, they do not linger
        assert set(second.scheduler.lane_depth.values()) == {0}
        assert second.queue_depth == 0
