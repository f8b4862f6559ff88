"""ScheduledQueue policy: lanes, EDF, starvation bound, affinity,
single-collector invariant, deadline re-check at batch close."""

import json
import threading
import time

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime.api import RolloutRequest
from repro.serve import (
    AdmissionController,
    DeadlineExpired,
    ScheduledQueue,
    SchedulerStats,
    ServeStats,
    WaitHistogram,
    lane_label,
)
from repro.serve.scheduler import MAX_LANE_SKIPS

X0 = np.zeros((5, 3))


def make_request(model="m", graph="g", n_steps=2, **kw):
    return RolloutRequest(model=model, graph=graph, x0=X0, n_steps=n_steps, **kw)


# -- drop-in queue behavior ---------------------------------------------------


def test_same_key_requests_coalesce():
    q = ScheduledQueue()
    for _ in range(3):
        q.submit(make_request())
    batch = q.next_batch(max_batch_size=8, max_wait_s=0.0)
    assert len(batch) == 3
    assert q.depth() == 0


def test_max_batch_size_caps_collection():
    q = ScheduledQueue()
    for _ in range(5):
        q.submit(make_request())
    assert len(q.next_batch(max_batch_size=2, max_wait_s=0.0)) == 2
    assert q.depth() == 3


def test_wait_window_picks_up_late_arrivals():
    q = ScheduledQueue()
    q.submit(make_request())

    def late_submit():
        time.sleep(0.05)
        q.submit(make_request())

    t = threading.Thread(target=late_submit)
    t.start()
    batch = q.next_batch(max_batch_size=8, max_wait_s=1.0)
    t.join()
    assert len(batch) == 2


def test_close_drains_then_returns_none():
    q = ScheduledQueue()
    q.submit(make_request())
    q.close()
    with pytest.raises(RuntimeError, match="closed"):
        q.submit(make_request())
    assert len(q.next_batch(8, 0.0)) == 1
    assert q.next_batch(8, 0.0) is None


def test_depth_high_water_tracks_peak():
    q = ScheduledQueue()
    for _ in range(4):
        q.submit(make_request())
    q.submit(make_request(model="other"))
    q.next_batch(8, 0.0)
    assert q.depth_high_water == 5
    assert q.scheduler_stats().lane_depth_high_water == 4


# -- cross-key dispatch -------------------------------------------------------


def test_collecting_lane_does_not_block_other_keys():
    """A long collection window on key a must not delay key b."""
    q = ScheduledQueue()
    q.submit(make_request(model="a"))
    got_a = []

    def collect_a():
        got_a.append(q.next_batch(8, max_wait_s=1.0, worker_id=0))

    t = threading.Thread(target=collect_a)
    t.start()
    time.sleep(0.05)  # worker 0 is now inside lane a's window
    q.submit(make_request(model="b"))
    started = time.perf_counter()
    batch_b = q.next_batch(8, max_wait_s=0.0, worker_id=1)
    elapsed = time.perf_counter() - started
    assert [r.model for r, _ in batch_b] == ["b"]
    assert elapsed < 0.5, "key b waited behind key a's collection window"
    t.join()
    assert [r.model for r, _ in got_a[0]] == ["a"]


def test_single_collector_per_key_two_worker_race():
    """Two workers racing one key must produce ONE full batch, not two
    half-full tiles."""
    q = ScheduledQueue()
    q.submit(make_request())
    q.submit(make_request())
    results = [None, None]
    barrier = threading.Barrier(2)

    def race(worker_id):
        barrier.wait()
        results[worker_id] = q.next_batch(
            max_batch_size=2, max_wait_s=0.3, worker_id=worker_id
        )

    threads = [threading.Thread(target=race, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.5)
    q.close()  # the losing worker drains out with None
    for t in threads:
        t.join()
    batches = [b for b in results if b is not None]
    assert len(batches) == 1, f"key split across {len(batches)} collectors"
    assert len(batches[0]) == 2


def test_early_close_is_work_conserving():
    """With another lane waiting and no idle workers, a dry lane's
    collection window closes immediately instead of burning max_wait_s."""
    q = ScheduledQueue()
    q.submit(make_request(model="a"))
    q.submit(make_request(model="b"))
    started = time.perf_counter()
    first = q.next_batch(8, max_wait_s=1.0, worker_id=0)
    elapsed = time.perf_counter() - started
    assert [r.model for r, _ in first] == ["a"]
    assert elapsed < 0.5, "dry lane burned its full window with b waiting"
    second = q.next_batch(8, max_wait_s=0.0, worker_id=0)
    assert [r.model for r, _ in second] == ["b"]


# -- lane choice policy -------------------------------------------------------


def test_edf_prefers_earliest_deadline_over_arrival_order():
    q = ScheduledQueue()
    q.submit(make_request(model="relaxed"))  # arrived first, no deadline
    q.submit(make_request(model="urgent", deadline_s=30.0))
    batch = q.next_batch(8, 0.0)
    assert [r.model for r, _ in batch] == ["urgent"]
    assert q.scheduler_stats().edf_preemptions == 1


def test_arrival_order_breaks_deadline_ties():
    q = ScheduledQueue()
    q.submit(make_request(model="first"))
    q.submit(make_request(model="second"))
    assert [r.model for r, _ in q.next_batch(8, 0.0)] == ["first"]
    assert [r.model for r, _ in q.next_batch(8, 0.0)] == ["second"]
    assert q.scheduler_stats().edf_preemptions == 0


def test_starvation_bound_forces_skipped_lane():
    """A no-deadline lane loses to deadline lanes only MAX_LANE_SKIPS
    times; then it must be served."""
    q = ScheduledQueue(affinity=False)
    q.submit(make_request(model="patient"))
    for _ in range(MAX_LANE_SKIPS):
        q.submit(make_request(model="urgent", deadline_s=30.0))
        batch = q.next_batch(8, 0.0)
        assert [r.model for r, _ in batch] == ["urgent"]
    q.submit(make_request(model="urgent", deadline_s=30.0))
    batch = q.next_batch(8, 0.0)
    assert [r.model for r, _ in batch] == ["patient"], (
        "lane was skipped past the starvation bound"
    )
    stats = q.scheduler_stats()
    assert stats.starvation_overrides == 1


def test_affinity_hit_then_steal_then_repin():
    q = ScheduledQueue(affinity=True)
    q.submit(make_request())
    q.next_batch(8, 0.0, worker_id=0)  # first dispatch pins lane -> 0
    q.submit(make_request())
    q.next_batch(8, 0.0, worker_id=0)  # worker 0 returns: affinity hit
    q.submit(make_request())
    q.next_batch(8, 0.0, worker_id=1)  # worker 1 steals the pinned lane
    q.submit(make_request())
    q.next_batch(8, 0.0, worker_id=1)  # affinity re-pinned to the thief
    stats = q.scheduler_stats()
    assert stats.affinity_hits == 2
    assert stats.affinity_steals == 1
    assert stats.dispatches == 4


def test_affinity_off_counts_nothing():
    q = ScheduledQueue(affinity=False)
    for _ in range(3):
        q.submit(make_request())
        q.next_batch(8, 0.0, worker_id=0)
    stats = q.scheduler_stats()
    assert stats.affinity_hits == 0
    assert stats.affinity_steals == 0


# -- deadlines ----------------------------------------------------------------


def test_expiry_during_collection_window_sheds_at_close():
    """A request that expires *during* max_wait_s must be shed with
    DeadlineExpired at batch close, not executed."""
    admission = AdmissionController()
    q = ScheduledQueue(admission)
    handle = q.submit(make_request(deadline_s=0.05))

    def close_later():
        time.sleep(0.4)
        q.close()

    t = threading.Thread(target=close_later)
    t.start()
    # live at dequeue (just submitted), expired before the window ends
    batch = q.next_batch(max_batch_size=2, max_wait_s=0.2)
    t.join()
    assert batch is None, "an expired request reached execution"
    assert handle.done
    with pytest.raises(DeadlineExpired):
        handle.result(timeout=1.0)
    stats = admission.stats()
    assert stats.expired == 1
    assert stats.expired_at_close == 1


def test_expired_while_pending_is_not_counted_at_close():
    admission = AdmissionController()
    q = ScheduledQueue(admission)
    handle = q.submit(make_request(deadline_s=0.01))
    time.sleep(0.05)
    q.submit(make_request(model="live"))
    batch = q.next_batch(8, 0.0)
    assert [r.model for r, _ in batch] == ["live"]
    with pytest.raises(DeadlineExpired):
        handle.result(timeout=1.0)
    stats = admission.stats()
    assert stats.expired == 1
    assert stats.expired_at_close == 0


# -- stats --------------------------------------------------------------------


def test_lane_wait_histogram_per_lane():
    admission = AdmissionController()
    q = ScheduledQueue(admission)
    q.submit(make_request(model="a"))
    q.submit(make_request(model="b", precision="float32"))
    q.next_batch(8, 0.0)
    q.next_batch(8, 0.0)
    stats = q.scheduler_stats()
    assert set(stats.lane_wait) == {
        "a/g/None/direct/float64", "b/g/None/direct/float32",
    }
    for hist in stats.lane_wait.values():
        assert hist.total == 1
        assert hist.sum_s >= 0.0
    key = make_request(model="a").key
    assert lane_label(key) == "a/g/None/direct/float64"


def test_scheduler_stats_merge_and_roundtrip(registry_of):
    """Two shards' scheduler series merge by registry merge and survive
    the wire snapshot."""
    a = registry_of({
        "scheduler.dispatches": 3, "scheduler.affinity_hits": 2,
        "scheduler.affinity_steals": 1, "scheduler.edf_preemptions": 1,
        "scheduler.starvation_overrides": 1, "scheduler.warm_key_batches": 2,
        "scheduler.lanes": 2, "scheduler.lane_depth_high_water": 4,
        "scheduler.lane_depth": {"x": 1, "y": 2},
        "scheduler.lane_wait": {
            "x": WaitHistogram(counts=[1] + [0] * 10, total=1, sum_s=0.5),
        },
    })
    b = registry_of({
        "scheduler.dispatches": 1, "scheduler.lanes": 1,
        "scheduler.lane_depth_high_water": 7,
        "scheduler.lane_depth": {"y": 3, "z": 1},
        "scheduler.lane_wait": {
            "x": WaitHistogram(counts=[0, 2] + [0] * 9, total=2, sum_s=1.0),
            "z": WaitHistogram(counts=[1] + [0] * 10, total=1, sum_s=0.1),
        },
    })
    merged_registry = a.merge(b)
    merged = ServeStats.from_registry(merged_registry).scheduler
    assert isinstance(merged, SchedulerStats)
    assert merged.dispatches == 4
    assert merged.affinity_hits == 2
    assert merged.lane_depth == {"x": 1, "y": 5, "z": 1}
    assert merged.lane_depth_high_water == 7
    assert merged.lane_wait["x"].total == 3
    assert merged.lane_wait["x"].sum_s == pytest.approx(1.5)
    assert merged.lane_wait["z"].total == 1
    wire = json.loads(json.dumps(merged_registry.snapshot()))
    back = ServeStats.from_registry(MetricsRegistry.from_snapshot(wire))
    assert back.scheduler == merged
