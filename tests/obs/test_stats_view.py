"""ServeStats is a view over a MetricsRegistry, driven by one table.

There is one metrics model: recorders update series in a registry,
``ServeStats.from_registry`` reads them back through
``repro.serve.metrics.SERIES``, and cluster-wide stats are the view of
the shards' merged registries. These tests hold the three things that
design promises: the view of a merge does the right arithmetic, the
exported catalogue only changes by a deliberate diff, and a series is
named in exactly one place.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime import RolloutRequest
from repro.serve import InferenceService, ServeConfig
from repro.serve.metrics import (
    ServeStats,
    WaitHistogram,
    stats_markdown,
)

SERVE_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "serve"
LANE_1 = "m1/g/None/direct/float64"
LANE_2 = "m2/g/None/direct/float32"


def shard_fields(seed: int) -> dict:
    """A deterministic, fully-populated shard (no engine needed)."""
    n_buckets = len(WaitHistogram().counts)
    counts = [(seed + i) % 3 for i in range(n_buckets)]
    return {
        "requests": 4 + seed,
        "batches": 2 + seed,
        "steps": 12 * (1 + seed),
        "mean_batch_size": 1.5 + 0.25 * seed,
        "max_batch_size": 4 + seed,
        "mean_queue_wait_s": 0.01 * (1 + seed),
        "mean_latency_s": 0.05 * (1 + seed),
        "max_latency_s": 0.2 * (1 + seed),
        "queue_depth": seed,
        "queue_depth_high_water": 3 + seed,
        "tile_hits": 5 + seed,
        "tile_misses": 1 + seed,
        "train_jobs": seed,
        "train_s": 0.5 * seed,
        "arena_reallocations": 2 + seed,
        "arena_bytes_high_water": 4096 * (1 + seed),
        "f32_batches": seed,
        "cache.entries": 1 + seed,
        "cache.resident_bytes": 1 << (10 + seed),
        "cache.hits": 3 + seed,
        "cache.misses": 1,
        "cache.evictions": seed,
        "cache.evicted_reload_s": 0.1 * seed,
        "cache.plan_build_s": 0.02 * (1 + seed),
        "registry.registered": 2,
        "registry.resident": 1 + seed,
        "registry.per_model_loads": {"m1": 1, "m2": seed},
        "registry.evictions": seed,
        "admission.accepted": 4 + seed,
        "admission.shed": seed,
        "admission.expired": seed,
        "admission.expired_at_close": seed,
        "admission.queue_wait": WaitHistogram(
            counts=counts, total=sum(counts), sum_s=0.3 * (1 + seed)
        ),
        "scheduler.dispatches": 2 + seed,
        "scheduler.affinity_hits": 1 + seed,
        "scheduler.affinity_steals": seed,
        "scheduler.edf_preemptions": seed,
        "scheduler.starvation_overrides": seed,
        "scheduler.warm_key_batches": 1 + seed,
        "scheduler.lanes": 1 + seed,
        "scheduler.lane_depth_high_water": 2 + seed,
        "scheduler.lane_depth": {LANE_1: 1 + seed, LANE_2: seed},
        "scheduler.lane_wait": {
            LANE_1: WaitHistogram(
                counts=counts, total=sum(counts), sum_s=0.2 * (1 + seed)
            ),
        },
    }


class TestViewOfAMerge:
    """Three populated shard registries, relabelled and merged."""

    @pytest.fixture()
    def shards(self):
        return [shard_fields(seed) for seed in range(3)]

    @pytest.fixture()
    def merged(self, shards, registry_of, merged_view):
        return merged_view(*(registry_of(fields) for fields in shards))

    def test_one_shard_views_back_exactly(self, shards, registry_of):
        fields = shards[1]
        view = ServeStats.from_registry(registry_of(fields))
        assert view.requests == fields["requests"]
        assert view.mean_latency_s == pytest.approx(fields["mean_latency_s"])
        assert view.cache.hits == fields["cache.hits"]
        assert view.registry.per_model_loads == {"m1": 1, "m2": 1}
        assert view.admission.queue_wait == fields["admission.queue_wait"]
        assert view.scheduler.lane_depth == fields["scheduler.lane_depth"]

    def test_counters_sum(self, shards, merged):
        for path in ("requests", "batches", "steps", "tile_hits",
                     "train_jobs", "f32_batches"):
            assert getattr(merged, path) == sum(s[path] for s in shards)
        assert merged.cache.hits == sum(s["cache.hits"] for s in shards)
        assert merged.admission.expired_at_close == sum(
            s["admission.expired_at_close"] for s in shards
        )
        assert merged.scheduler.dispatches == sum(
            s["scheduler.dispatches"] for s in shards
        )
        assert merged.scheduler.affinity_hits == sum(
            s["scheduler.affinity_hits"] for s in shards
        )
        assert merged.registry.loads == sum(
            sum(s["registry.per_model_loads"].values()) for s in shards
        )

    def test_means_reweight_by_request_count(self, shards, merged):
        n = sum(s["requests"] for s in shards)
        for mean in ("mean_latency_s", "mean_batch_size", "mean_queue_wait_s"):
            expected = sum(s[mean] * s["requests"] for s in shards) / n
            assert getattr(merged, mean) == pytest.approx(expected)

    def test_levels_sum_and_high_waters_take_the_max(self, shards, merged):
        assert merged.queue_depth == sum(s["queue_depth"] for s in shards)
        assert merged.cache.resident_bytes == sum(
            s["cache.resident_bytes"] for s in shards
        )
        assert merged.scheduler.lanes == sum(
            s["scheduler.lanes"] for s in shards
        )
        # arenas sit at their high water simultaneously: the one
        # high-water mark that sums
        assert merged.arena_bytes_high_water == sum(
            s["arena_bytes_high_water"] for s in shards
        )
        for path in ("queue_depth_high_water", "max_batch_size"):
            assert getattr(merged, path) == max(s[path] for s in shards)
        assert merged.max_latency_s == pytest.approx(
            max(s["max_latency_s"] for s in shards)
        )
        assert merged.scheduler.lane_depth_high_water == max(
            s["scheduler.lane_depth_high_water"] for s in shards
        )

    def test_histograms_add_bucketwise(self, shards, merged):
        waits = [s["admission.queue_wait"] for s in shards]
        hist = merged.admission.queue_wait
        assert hist.counts == [sum(c) for c in zip(*(w.counts for w in waits))]
        assert hist.total == sum(w.total for w in waits)
        assert hist.sum_s == pytest.approx(sum(w.sum_s for w in waits))

    def test_label_keyed_fields_merge_per_key(self, shards, merged):
        assert merged.scheduler.lane_depth == {
            LANE_1: sum(s["scheduler.lane_depth"][LANE_1] for s in shards),
            LANE_2: sum(s["scheduler.lane_depth"][LANE_2] for s in shards),
        }
        assert set(merged.scheduler.lane_wait) == {LANE_1}
        lane_waits = [s["scheduler.lane_wait"][LANE_1] for s in shards]
        assert merged.scheduler.lane_wait[LANE_1].counts == [
            sum(c) for c in zip(*(w.counts for w in lane_waits))
        ]
        assert merged.registry.per_model_loads == {
            "m1": 3, "m2": sum(range(3)),
        }

    def test_shard_labels_keep_series_apart(self, shards, registry_of):
        merged = MetricsRegistry()
        for i, fields in enumerate(shards[:2]):
            merged.merge(registry_of(fields).relabel(shard=f"s{i}"))
        req = merged.counter("repro_requests_total")
        a, b = shards[0]["requests"], shards[1]["requests"]
        assert sum(
            v for k, v in req.samples().items() if ("shard", "s0") in k
        ) == float(a)
        assert req.total() == float(a + b)

    def test_the_table_renders_the_merged_rows(self, merged):
        text = stats_markdown(merged)
        assert f"| f32 batches | {merged.f32_batches} |" in text
        sched = merged.scheduler
        assert (f"| scheduler dispatches / lanes pending | "
                f"{sched.dispatches} / {sched.lanes} |" in text)
        assert (f"| affinity hits / steals | {sched.affinity_hits} / "
                f"{sched.affinity_steals} |" in text)


class TestRecordedSeries:
    """What a live service records is what its view reads."""

    @pytest.fixture(scope="class")
    def served(self):
        from repro.gnn import GNNConfig, MeshGNN
        from repro.graph import build_full_graph
        from repro.mesh import BoxMesh

        mesh = BoxMesh(3, 3, 2, p=1)
        graph = build_full_graph(mesh)
        x0 = np.zeros((graph.n_local, 3))
        model = MeshGNN(GNNConfig(hidden=4, n_message_passing=1, n_mlp_hidden=0))
        with InferenceService(ServeConfig(max_wait_s=0.0)) as svc:
            svc.register_model("m1", model)
            svc.register_model("m2", model)
            svc.register_graph("g", [graph])
            for name in ("m1", "m2", "m1"):
                svc.submit(RolloutRequest(name, "g", x0, n_steps=2)).result()
            yield svc.stats(), svc.metrics_registry()

    def test_means_are_stored_as_sums(self, served):
        stats, reg = served
        assert stats.requests == 3
        latency = reg.counter("repro_latency_seconds_total").total()
        assert latency == pytest.approx(stats.mean_latency_s * stats.requests)
        waited = reg.counter("repro_queue_wait_served_seconds_total").total()
        assert waited == pytest.approx(stats.mean_queue_wait_s * stats.requests)
        assert (reg.gauge("repro_max_latency_seconds", merge="max").value()
                == stats.max_latency_s)

    def test_requests_are_counted_live_per_model_and_graph(self, served):
        _, reg = served
        req = reg.counter("repro_requests_total")
        assert req.value(model="m1", graph="g") == 2.0
        assert req.value(model="m2", graph="g") == 1.0

    def test_model_loads_carry_the_model_label(self, served):
        stats, reg = served
        loads = reg.counter("repro_model_loads_total")
        assert loads.value(model="m1") == 1.0
        assert stats.registry.per_model_loads == {"m1": 1, "m2": 1}
        assert stats.registry.loads == 2

    def test_queue_wait_histogram_maps_bucket_for_bucket(self, served):
        stats, reg = served
        ((_, (counts, sum_s)),) = reg.get(
            "repro_queue_wait_seconds"
        ).samples().items()
        assert counts == stats.admission.queue_wait.counts
        assert sum_s == stats.admission.queue_wait.sum_s
        assert stats.admission.queue_wait.total == 3
        # every served request's wait is also in its lane's histogram
        assert sum(
            h.total for h in stats.scheduler.lane_wait.values()
        ) == 3


#: (name, kind, gauge merge policy, help) of every series a fresh
#: service exports. Dashboards are an external contract: a rename or a
#: policy change must show up here as a deliberate diff.
CATALOGUE = [
    ("repro_admission_accepted_total", "counter", None,
     "requests admitted to the queue"),
    ("repro_admission_expired_at_close_total", "counter", None,
     "requests expired during batch collection (subset of expired)"),
    ("repro_admission_expired_total", "counter", None,
     "requests expired in the queue"),
    ("repro_admission_shed_total", "counter", None,
     "requests shed at admission"),
    ("repro_arena_pooled_bytes_high_water", "gauge", "sum",
     "resident worker-arena bytes at high water"),
    ("repro_arena_reallocations_total", "counter", None,
     "worker-arena reallocations"),
    ("repro_batches_total", "counter", None, "executed batches"),
    ("repro_ensemble_blow_ups_total", "counter", None,
     "ensembles that tripped blow-up"),
    ("repro_ensemble_chunks_total", "counter", None,
     "ensemble chunks dispatched"),
    ("repro_ensemble_early_stops_total", "counter", None,
     "ensembles early-stopped at the blow-up step"),
    ("repro_ensemble_members_total", "counter", None,
     "ensemble members executed"),
    ("repro_ensemble_requests_total", "counter", None,
     "admitted ensemble requests"),
    ("repro_f32_batches_total", "counter", None,
     "batches served on the float32 tier"),
    ("repro_graph_cache_entries", "gauge", "sum",
     "resident graph-cache entries"),
    ("repro_graph_cache_evicted_reload_seconds_total", "counter", None,
     "reload cost of evicted graph assets"),
    ("repro_graph_cache_evictions_total", "counter", None,
     "graph-cache evictions"),
    ("repro_graph_cache_hits_total", "counter", None, "graph-cache hits"),
    ("repro_graph_cache_misses_total", "counter", None, "graph-cache misses"),
    ("repro_graph_cache_plan_build_seconds_total", "counter", None,
     "aggregation-plan compile seconds"),
    ("repro_graph_cache_resident_bytes", "gauge", "sum",
     "resident graph-cache bytes"),
    ("repro_lane_wait_seconds", "histogram", None,
     "queue wait of dispatched requests, labeled per lane"),
    ("repro_latency_seconds_total", "counter", None,
     "summed request latency (mean_latency_s * requests)"),
    ("repro_max_batch_size", "gauge", "max", "largest executed batch"),
    ("repro_max_latency_seconds", "gauge", "max", "worst request latency"),
    ("repro_model_evictions_total", "counter", None, "model evictions"),
    ("repro_model_loads_total", "counter", None, "model checkpoint loads"),
    ("repro_models_registered", "gauge", "sum", "registered model names"),
    ("repro_models_resident", "gauge", "sum", "models resident in memory"),
    ("repro_queue_depth", "gauge", "sum", "requests pending now"),
    ("repro_queue_depth_high_water", "gauge", "max", "peak queue depth"),
    ("repro_queue_wait_seconds", "histogram", None,
     "queue wait of admitted requests (served and expired)"),
    ("repro_queue_wait_served_seconds_total", "counter", None,
     "summed queue wait of served requests (mean_queue_wait_s * requests)"),
    ("repro_request_batch_size_total", "counter", None,
     "summed per-request batch sizes (mean_batch_size * requests)"),
    ("repro_requests_total", "counter", None, "completed rollout requests"),
    ("repro_sched_affinity_hits_total", "counter", None,
     "lane grants landing on the lane's warm worker"),
    ("repro_sched_affinity_steals_total", "counter", None,
     "lane grants stealing a lane pinned to a busy worker"),
    ("repro_sched_dispatches_total", "counter", None,
     "batches dispatched by the scheduler"),
    ("repro_sched_edf_preemptions_total", "counter", None,
     "grants where an earlier deadline beat arrival order"),
    ("repro_sched_lane_depth", "gauge", "sum",
     "requests pending per lane now"),
    ("repro_sched_lane_depth_high_water", "gauge", "max",
     "peak single-lane depth"),
    ("repro_sched_lanes", "gauge", "sum", "lanes with pending requests now"),
    ("repro_sched_starvation_overrides_total", "counter", None,
     "grants forced by the per-lane skip bound"),
    ("repro_sched_warm_key_batches_total", "counter", None,
     "batches executed by a worker that had served the key before"),
    ("repro_steps_total", "counter", None, "rollout steps computed"),
    ("repro_tile_cache_hits_total", "counter", None, "tiled-graph cache hits"),
    ("repro_tile_cache_misses_total", "counter", None,
     "tiled-graph cache misses"),
    ("repro_train_jobs_total", "counter", None, "completed training jobs"),
    ("repro_train_seconds_total", "counter", None, "training wall seconds"),
]


class TestSeriesCatalogue:
    def test_a_fresh_service_exports_exactly_the_catalogue(self):
        snapshot = InferenceService().metrics_registry().snapshot()
        exported = [
            (name, entry["kind"], entry.get("merge"), entry["help"])
            for name, entry in sorted(snapshot.items())
        ]
        assert exported == CATALOGUE

    def test_unlabelled_series_start_at_zero(self):
        """A fresh service's exposition has a sample for every series
        that carries no label of its own (rate() needs a first point)."""
        text = InferenceService().metrics_registry().prometheus_text()
        assert "repro_admission_shed_total 0\n" in text
        assert "repro_queue_depth_high_water 0\n" in text
        assert 'repro_queue_wait_seconds_bucket{le="+Inf"} 0\n' in text

    def test_each_series_is_named_in_exactly_one_place(self):
        literal = re.compile(r"""["'](repro_[a-z0-9_]+)["']""")
        seen: dict = {}
        for path in sorted(SERVE_SRC.rglob("*.py")):
            for name in literal.findall(path.read_text(encoding="utf-8")):
                seen.setdefault(name, []).append(path.name)
        assert sorted(seen) == [name for name, *_ in CATALOGUE]
        repeated = {n: where for n, where in seen.items() if len(where) > 1}
        assert not repeated, f"series named more than once: {repeated}"


class TestZeroRequestSnapshots:
    """Satellite: a fresh service's stats table must render cleanly."""

    def test_markdown_has_no_nan_and_no_fake_zeros(self):
        text = stats_markdown(ServeStats())
        assert "nan" not in text.lower()
        assert "| mean latency (ms) | - |" in text
        assert "| mean batch size | - |" in text
        assert "| max batch size | - |" in text
        assert "| batching factor | - |" in text
        assert "| graph-cache hit rate | - |" in text

    def test_nan_means_from_foreign_snapshots_render_as_dash(self):
        s = ServeStats(requests=3, mean_latency_s=math.nan)
        text = stats_markdown(s)
        assert "nan" not in text.lower()
        assert "| mean latency (ms) | - |" in text

    def test_view_of_an_empty_registry_still_renders(self):
        stats = ServeStats.from_registry(MetricsRegistry())
        assert stats == ServeStats()
        text = stats_markdown(stats)
        assert "nan" not in text.lower()
        assert "| requests served | 0 |" in text
