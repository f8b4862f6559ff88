"""Cluster stats() is the view of merged shard registries: the arithmetic."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve.metrics import (
    ServeStats,
    WaitHistogram,
    stats_markdown,
)


@pytest.fixture()
def shard(registry_of):
    """Factory: one shard's registry, populated like a served shard's."""

    def build(requests, mean_latency_s, **overrides) -> MetricsRegistry:
        fields = {
            "requests": requests,
            "batches": requests,
            "steps": requests * 2,
            "mean_batch_size": 1.0,
            "max_batch_size": 1,
            "mean_queue_wait_s": 0.001,
            "mean_latency_s": mean_latency_s,
            "max_latency_s": mean_latency_s * 2,
            "queue_depth": 1,
            "queue_depth_high_water": requests,
            "tile_hits": requests,
            "tile_misses": 1,
            "train_jobs": 1,
            "train_s": 0.5,
            "arena_reallocations": 3,
        }
        fields.update(overrides)
        return registry_of(fields)

    return build


def queue_wait(counts: dict, sum_s: float) -> WaitHistogram:
    hist = WaitHistogram(sum_s=sum_s)
    for bucket, count in counts.items():
        hist.counts[bucket] = count
    return hist


class TestMergeStats:
    def test_empty_merges_to_zero_snapshot(self, merged_view):
        assert merged_view() == ServeStats()

    def test_single_snapshot_is_identity_on_counters(self, shard, merged_view):
        merged = merged_view(shard(4, 0.010))
        assert merged.requests == 4
        assert merged.mean_latency_s == pytest.approx(0.010)
        assert merged.tile_hits == 4

    def test_counters_sum_and_means_reweight(self, shard, merged_view):
        merged = merged_view(shard(1, 0.010), shard(3, 0.002))
        assert merged.requests == 4
        assert merged.batches == 4
        assert merged.steps == 8
        assert merged.tile_hits == 4
        assert merged.queue_depth == 2            # pending work sums
        assert merged.queue_depth_high_water == 3  # peaks take the max
        assert merged.max_latency_s == pytest.approx(0.020)
        # weighted mean: (1*10ms + 3*2ms) / 4 = 4ms
        assert merged.mean_latency_s == pytest.approx(0.004)
        assert merged.train_jobs == 2
        assert merged.arena_reallocations == 6

    def test_zero_request_shards_do_not_skew_means(self, shard, merged_view):
        merged = merged_view(shard(10, 0.005), shard(0, 0.0))
        assert merged.mean_latency_s == pytest.approx(0.005)

    def test_nested_stats_merge(self, registry_of, merged_view):
        a = registry_of({
            "requests": 1,
            "cache.entries": 1, "cache.resident_bytes": 100,
            "cache.hits": 2, "cache.misses": 1, "cache.evictions": 1,
            "cache.plan_build_s": 0.1, "cache.evicted_reload_s": 0.2,
            "registry.registered": 1, "registry.resident": 1,
            "registry.per_model_loads": {"m": 1},
            "admission.accepted": 2, "admission.shed": 1,
        })
        b = registry_of({
            "requests": 1,
            "cache.entries": 2, "cache.resident_bytes": 50,
            "cache.hits": 1, "cache.misses": 3, "cache.evictions": 0,
            "cache.plan_build_s": 0.05, "cache.evicted_reload_s": 0.0,
            "registry.registered": 1, "registry.resident": 0,
            "registry.per_model_loads": {"m": 1, "n": 1},
            "admission.accepted": 3, "admission.expired": 2,
        })
        merged = merged_view(a, b)
        assert merged.cache.entries == 3
        assert merged.cache.resident_bytes == 150
        assert merged.cache.hit_rate == pytest.approx(3 / 7)
        assert merged.cache.evicted_reload_s == pytest.approx(0.2)
        assert merged.registry.registered == 2
        assert merged.registry.per_model_loads == {"m": 2, "n": 1}
        assert merged.registry.loads == 3
        assert merged.admission.accepted == 5
        assert merged.admission.shed == 1
        assert merged.admission.expired == 2

    def test_merged_snapshot_renders(self, shard, merged_view):
        table = stats_markdown(merged_view(shard(2, 0.01), shard(3, 0.02)))
        assert "| requests served | 5 |" in table
        assert "evicted reload cost (ms)" in table
        assert "worker-arena reallocations" in table


class TestWaitHistogramMerge:
    def test_bucketwise_sum(self, registry_of, merged_view):
        a = registry_of({
            "admission.accepted": 1,
            "admission.queue_wait": queue_wait({0: 2}, 0.001),
        })
        b = registry_of({
            "admission.accepted": 1,
            "admission.queue_wait": queue_wait({0: 1, 3: 1}, 0.05),
        })
        merged = merged_view(a, b).admission
        assert merged.queue_wait.counts[0] == 3
        assert merged.queue_wait.counts[3] == 1
        assert merged.queue_wait.total == 4
        assert merged.queue_wait.sum_s == pytest.approx(0.051)

    def test_bound_mismatch_rejected(self, registry_of):
        a = registry_of({})
        b = MetricsRegistry()
        b.histogram("repro_queue_wait_seconds", bounds=(1.0, 2.0)).observe(1.5)
        with pytest.raises(ValueError, match="bounds"):
            a.merge(b)

    def test_roundtrip_through_wire_snapshot_then_merge(self, shard,
                                                        merged_view):
        """The cluster merges registries reconstructed from the wire."""
        a = shard(2, 0.01)
        b = shard(1, 0.02)
        rehydrated = [
            MetricsRegistry.from_snapshot(json.loads(json.dumps(r.snapshot())))
            for r in (a, b)
        ]
        assert merged_view(*rehydrated) == merged_view(a, b)
