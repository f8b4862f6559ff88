"""The request queue's dynamic batching: coalescing, keys, ordering, handles."""

import threading
import time

import numpy as np
import pytest

from repro.runtime.api import RolloutRequest
from repro.serve import ScheduledQueue

X0 = np.zeros((5, 3))


def make_request(model="m", graph="g", n_steps=2, **kw):
    return RolloutRequest(model=model, graph=graph, x0=X0, n_steps=n_steps, **kw)


def test_request_validation():
    with pytest.raises(ValueError, match="n_steps"):
        make_request(n_steps=0)
    with pytest.raises(ValueError, match="2-D"):
        RolloutRequest(model="m", graph="g", x0=np.zeros(5), n_steps=1)
    with pytest.raises(ValueError, match="halo mode"):
        make_request(halo_mode="bogus")


def test_same_key_requests_coalesce():
    q = ScheduledQueue()
    for _ in range(3):
        q.submit(make_request())
    batch = q.next_batch(max_batch_size=8, max_wait_s=0.0)
    assert len(batch) == 3
    assert q.depth() == 0


def test_different_keys_split_batches_in_arrival_order():
    q = ScheduledQueue()
    q.submit(make_request(model="a"))
    q.submit(make_request(model="b"))
    q.submit(make_request(model="a"))
    first = q.next_batch(max_batch_size=8, max_wait_s=0.0)
    assert [r.model for r, _ in first] == ["a", "a"]
    second = q.next_batch(max_batch_size=8, max_wait_s=0.0)
    assert [r.model for r, _ in second] == ["b"]


def test_key_includes_halo_mode_and_residual():
    q = ScheduledQueue()
    q.submit(make_request(residual=False))
    q.submit(make_request(residual=True))
    q.submit(make_request(halo_mode="a2a"))
    assert len(q.next_batch(8, 0.0)) == 1
    assert len(q.next_batch(8, 0.0)) == 1
    assert len(q.next_batch(8, 0.0)) == 1


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


def test_zero_wait_executes_singleton_immediately():
    q = ScheduledQueue()
    q.submit(make_request())
    start = time.perf_counter()
    batch = q.next_batch(max_batch_size=8, max_wait_s=0.0)
    assert len(batch) == 1
    assert time.perf_counter() - start < 0.5


def test_close_drains_then_returns_none():
    q = ScheduledQueue()
    q.submit(make_request())
    q.close()
    with pytest.raises(RuntimeError, match="closed"):
        q.submit(make_request())
    assert len(q.next_batch(8, 0.0)) == 1
    assert q.next_batch(8, 0.0) is None


def test_handle_streams_frames_and_result():
    q = ScheduledQueue()
    handle = q.submit(make_request(n_steps=2))
    (req, h), = q.next_batch(8, 0.0)
    assert h is handle
    for k in range(3):
        h._push_frame(np.full((5, 3), float(k)))
    h._finish()
    states = handle.result(timeout=5.0).states
    assert len(states) == 3
    assert states[2][0, 0] == 2.0


def test_handle_propagates_worker_failure():
    q = ScheduledQueue()
    handle = q.submit(make_request())
    handle._finish(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        handle.result(timeout=5.0)


def test_depth_high_water_tracks_peak():
    q = ScheduledQueue()
    for _ in range(4):
        q.submit(make_request())
    q.next_batch(8, 0.0)
    assert q.depth_high_water == 4
