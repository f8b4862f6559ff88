"""Unit tests of repro.obs.registry: metric kinds, merge, exposition."""

import json

import pytest

from repro.obs.registry import MetricsRegistry


class TestCounters:
    def test_labeled_series_accumulate_independently(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests")
        c.inc(model="a")
        c.inc(2.0, model="a")
        c.inc(model="b")
        assert c.value(model="a") == 3.0
        assert c.value(model="b") == 1.0
        assert c.total() == 4.0

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


class TestGauges:
    def test_merge_policies(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, depth, peak in ((a, 3.0, 10.0), (b, 4.0, 7.0)):
            reg.gauge("depth", merge="sum").set(depth)
            reg.gauge("peak", merge="max").set(peak)
        a.merge(b)
        assert a.gauge("depth").value() == 7.0
        assert a.gauge("peak", merge="max").value() == 10.0

    def test_policy_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("g", merge="sum")
        with pytest.raises(ValueError):
            reg.gauge("g", merge="max")


class TestHistograms:
    def test_observe_buckets_and_overflow(self):
        h = MetricsRegistry().histogram("wait", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        ((_, (counts, total)),) = h.samples().items()
        assert counts == [1, 2, 1]
        assert total == pytest.approx(6.05)

    def test_load_requires_matching_bucket_count(self):
        h = MetricsRegistry().histogram("wait", bounds=(0.1,))
        with pytest.raises(ValueError):
            h.load([1, 2, 3], 0.5)

    def test_merge_sums_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("wait", bounds=(1.0,)).load([1, 2], 3.0)
        b.histogram("wait", bounds=(1.0,)).load([4, 8], 5.0)
        a.merge(b)
        ((_, (counts, total)),) = a.histogram(
            "wait", bounds=(1.0,)
        ).samples().items()
        assert counts == [5, 10]
        assert total == pytest.approx(8.0)


class TestMergeAndRelabel:
    def test_merge_sums_counters_per_labelset(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1.0, model="m")
        b.counter("c").inc(2.0, model="m")
        b.counter("c").inc(5.0, model="other")
        a.merge(b)
        assert a.counter("c").value(model="m") == 3.0
        assert a.counter("c").value(model="other") == 5.0

    def test_relabel_stamps_every_sample(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2.0, model="m")
        reg.gauge("g", merge="max").set(7.0)
        stamped = reg.relabel(shard="s1")
        assert stamped.counter("c").value(model="m", shard="s1") == 2.0
        assert stamped.gauge("g", merge="max").value(shard="s1") == 7.0
        # the original is untouched (relabel returns a copy)
        assert reg.counter("c").value(model="m") == 2.0

    def test_relabeled_shards_merge_without_collisions(self):
        shard = MetricsRegistry()
        shard.counter("req").inc(3.0)
        merged = MetricsRegistry()
        merged.merge(shard.relabel(shard="a")).merge(shard.relabel(shard="b"))
        assert merged.counter("req").value(shard="a") == 3.0
        assert merged.counter("req").value(shard="b") == 3.0
        assert merged.counter("req").total() == 6.0


class TestSnapshotRoundTrip:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("c", "help c").inc(2.5, model="m")
        reg.gauge("g", "help g", merge="max").set(4.0)
        reg.histogram("h", "help h", bounds=(0.5,)).load([1, 2], 1.5)
        return reg

    def test_snapshot_survives_json_and_reproduces_text(self):
        reg = self.build()
        doc = json.loads(json.dumps(reg.snapshot()))
        back = MetricsRegistry.from_snapshot(doc)
        assert back.prometheus_text() == reg.prometheus_text()
        assert back.snapshot() == reg.snapshot()


class TestPrometheusText:
    def test_format_essentials(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "served requests").inc(3.0, model='m"x')
        reg.histogram("wait", bounds=(0.5,)).load([2, 1], 0.9)
        text = reg.prometheus_text()
        assert "# HELP req_total served requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{model="m\\"x"} 3' in text
        # histogram buckets are cumulative with the +Inf catch-all
        assert 'wait_bucket{le="0.5"} 2' in text
        assert 'wait_bucket{le="+Inf"} 3' in text
        assert "wait_count 3" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().prometheus_text() == ""

    def test_non_finite_samples_render_as_the_format_specifies(self):
        """A non-finite sample must not kill the exposition (it can
        arrive from outside the process: a peer's snapshot is JSON,
        where ``Infinity`` / ``NaN`` parse)."""
        reg = MetricsRegistry()
        reg.gauge("up").set(float("inf"))
        reg.gauge("down").set(float("-inf"))
        reg.gauge("lost").set(float("nan"))
        reg.histogram("wait", bounds=(0.5,)).observe(float("inf"))
        text = reg.prometheus_text()
        assert "up +Inf\n" in text
        assert "down -Inf\n" in text
        assert "lost NaN\n" in text
        assert "wait_sum +Inf\n" in text

    def test_non_finite_gauge_survives_the_wire_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("level", merge="max").set(float("inf"))
        reg.gauge("ratio").set(float("nan"))
        wire = json.loads(json.dumps(reg.snapshot()))
        text = MetricsRegistry.from_snapshot(wire).prometheus_text()
        assert "level +Inf\n" in text
        assert "ratio NaN\n" in text

    def test_help_text_is_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", "a path C:\\tmp\nsecond line").inc()
        lines = reg.prometheus_text().splitlines()
        assert lines[0] == "# HELP c a path C:\\\\tmp\\nsecond line"
        assert lines[1] == "# TYPE c counter"


class TestGroupedUpdates:
    def test_set_max_only_raises_the_level(self):
        gauge = MetricsRegistry().gauge("peak", merge="max")
        gauge.set_max(3.0)
        gauge.set_max(1.0)
        assert gauge.value() == 3.0
        gauge.set_max(5.0, lane="x")
        assert gauge.value(lane="x") == 5.0 and gauge.value() == 3.0

    def test_no_snapshot_sees_half_an_atomic_group(self):
        """Two counters bumped together inside atomic() are equal in
        every snapshot and every relabelled copy a reader takes."""
        import sys
        import threading

        reg = MetricsRegistry()
        a, b = reg.counter("a"), reg.counter("b")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                with reg.atomic():
                    a.inc()
                    b.inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=writer) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for _ in range(300):
                doc = reg.snapshot()
                assert (doc["a"]["samples"][0]["value"]
                        == doc["b"]["samples"][0]["value"])
                copy = reg.relabel(shard="s")
                assert (copy.counter("a").value(shard="s")
                        == copy.counter("b").value(shard="s"))
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert a.value() == b.value() > 0
