"""The serving stack's one metrics model: a table of series and a view.

Every number the stack reports lives in a
:class:`~repro.obs.registry.MetricsRegistry` owned by its
:class:`~repro.serve.service.InferenceService`. The recorders — the
admission controller, the scheduler queue, the graph cache, the model
registry and the service's own batch / train / ensemble accounting —
increment series in it directly. :data:`SERIES` is the single place a
series is named: one row per series giving the :class:`ServeStats`
field it fills, its exported name, its kind (and with it the sum / max
rule by which it merges across shards) and its help text.
:func:`declare` creates a registry's series from the table and hands a
recorder its handles; :meth:`ServeStats.from_registry` reads any
registry back through the same table.

:class:`ServeStats` and the nested :class:`CacheStats` /
:class:`RegistryStats` / :class:`AdmissionStats` /
:class:`SchedulerStats` are therefore plain read-only *views*: a
single service's stats are the view of its registry, and cluster-wide
stats are the view of the shards' merged registries
(:meth:`MetricsRegistry.merge` applies each series' declared rule;
:meth:`MetricsRegistry.snapshot` is the one wire form). Means are
stored as what they are — a sum over a count — and divided at view
time, so they re-weight correctly under any merge.

:class:`RequestMetrics` is the per-request record attached to a
finished handle and carried by the wire ``done`` frame; the service
keeps running sums, never the records themselves. Rendering reuses
the markdown-table idiom of :mod:`repro.perf.report` so serving
reports read like the paper's performance tables.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.obs.registry import MetricsRegistry
from repro.perf.report import markdown_table

#: Upper bucket bounds (seconds) of the queue-wait histograms; the
#: implicit final bucket is +inf. Log-spaced 1 ms .. 30 s.
WAIT_BUCKETS_S = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


@dataclass(frozen=True)
class RequestMetrics:
    """Latency decomposition and context of one served request."""

    request_id: int
    model: str
    graph: str
    world_size: int
    batch_size: int
    n_steps: int
    queue_wait_s: float
    exec_s: float
    latency_s: float


# -- the view types ------------------------------------------------------------


@dataclass
class WaitHistogram:
    """Bucketed histogram of queue-wait seconds (view of one series).

    Counts are *per bucket*, not cumulative: ``counts[i]`` is the
    number of observations in ``(bounds_s[i-1], bounds_s[i]]``, with
    ``counts[-1]`` the overflow bucket above ``bounds_s[-1]``.
    """

    bounds_s: tuple = WAIT_BUCKETS_S
    counts: list = field(default_factory=lambda: [0] * (len(WAIT_BUCKETS_S) + 1))
    total: int = 0
    sum_s: float = 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1).

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * total`` (``inf`` when it falls in the
        overflow bucket, ``0.0`` when the histogram is empty).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for bound, count in zip(self.bounds_s, self.counts):
            seen += count
            if seen >= target:
                return bound
        return math.inf


@dataclass
class AdmissionStats:
    """Admission counters + queue-wait histogram (view).

    ``accepted`` counts submissions that entered the queue, ``shed``
    counts :class:`~repro.serve.admission.QueueFull` rejections,
    ``expired`` counts requests dropped because their deadline had
    passed — whether while still pending or during a batch's collection
    window; the latter are also counted in ``expired_at_close`` (a
    subset of ``expired``). The histogram observes the queue wait of
    every request *leaving* the queue — both those handed to a batch
    and those shed as expired (whose wait is by definition at least
    their deadline), so under deadline pressure the upper buckets
    reflect shed traffic, not served latency.
    """

    accepted: int = 0
    shed: int = 0
    expired: int = 0
    expired_at_close: int = 0
    queue_wait: WaitHistogram = field(default_factory=WaitHistogram)


@dataclass
class CacheStats:
    """Graph-cache hit/miss/eviction accounting (view).

    ``plan_build_s`` totals the aggregation-plan compile seconds spent
    by admissions over the cache lifetime; ``evicted_reload_s`` totals
    the reload cost (loader + plan build wall seconds) of every asset
    evicted so far — the price a churning cache has put back on future
    requests, surfaced in the stats table to explain churn.
    """

    entries: int = 0
    resident_bytes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    plan_build_s: float = 0.0
    evicted_reload_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class RegistryStats:
    """Model-registry accounting (view).

    ``loads`` is the total of ``per_model_loads`` (model name → times
    its weights became resident). Across shards everything sums: each
    shard owns a distinct server-side registry, so a model registered
    on every shard counts once per shard.
    """

    registered: int = 0
    resident: int = 0
    loads: int = 0
    evictions: int = 0
    per_model_loads: dict = field(default_factory=dict)


@dataclass
class SchedulerStats:
    """Scheduler counters + per-lane gauges/histograms (view).

    ``lane_depth`` (lane label → pending now) and ``lane_wait`` (lane
    label → queue-wait histogram of requests dispatched through that
    lane) are keyed by the series' ``lane`` label.
    ``warm_key_batches`` counts executed batches whose worker had
    served the same key before — the affinity payoff measured at the
    arenas by the service, not at dispatch by the queue.
    """

    dispatches: int = 0
    affinity_hits: int = 0
    affinity_steals: int = 0
    edf_preemptions: int = 0
    starvation_overrides: int = 0
    warm_key_batches: int = 0
    lanes: int = 0
    lane_depth_high_water: int = 0
    lane_depth: dict = field(default_factory=dict)
    lane_wait: dict = field(default_factory=dict)


@dataclass
class ServeStats:
    """Aggregate stats of one engine: a view of its metrics registry."""

    requests: int = 0
    batches: int = 0
    steps: int = 0
    mean_batch_size: float = 0.0
    max_batch_size: int = 0
    mean_queue_wait_s: float = 0.0
    mean_latency_s: float = 0.0
    max_latency_s: float = 0.0
    queue_depth: int = 0
    queue_depth_high_water: int = 0
    tile_hits: int = 0
    tile_misses: int = 0
    train_jobs: int = 0
    train_s: float = 0.0
    arena_reallocations: int = 0
    arena_bytes_high_water: int = 0
    f32_batches: int = 0
    ensemble_requests: int = 0
    ensemble_members: int = 0
    ensemble_chunks: int = 0
    ensemble_blow_ups: int = 0
    ensemble_early_stops: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    registry: RegistryStats = field(default_factory=RegistryStats)
    admission: AdmissionStats = field(default_factory=AdmissionStats)
    scheduler: SchedulerStats = field(default_factory=SchedulerStats)

    @property
    def batching_factor(self) -> float:
        """Mean requests served per executed batch (1.0 = no batching)."""
        return self.requests / self.batches if self.batches else 0.0

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> ServeStats:
        """The stats a registry holds, read through :data:`SERIES`.

        Label-blind: a counter or ``sum`` gauge totals over its
        labelsets, a ``max`` gauge takes their max, a histogram adds
        them bucket-wise — so the view of shard registries merged
        under ``shard=…`` labels is the cluster-wide snapshot. Series
        the registry lacks read as zero.
        """
        with registry.atomic():
            v = {row.field: row.read(registry) for row in SERIES}
        n = v["requests"]
        for mean in ("mean_batch_size", "mean_queue_wait_s", "mean_latency_s"):
            total = v.pop(mean + "*requests")
            v[mean] = total / n if n else 0.0
        v["registry.loads"] = sum(v["registry.per_model_loads"].values())
        nested = {
            name: view(**_view_kwargs(view, v, name + "."))
            for name, view in _NESTED_VIEWS.items()
        }
        return ServeStats(**_view_kwargs(cls, v, ""), **nested)


_NESTED_VIEWS = {
    "cache": CacheStats,
    "registry": RegistryStats,
    "admission": AdmissionStats,
    "scheduler": SchedulerStats,
}


def _view_kwargs(view: type, values: dict, prefix: str) -> dict:
    """``view``'s constructor arguments out of path-keyed ``values``."""
    return {
        f.name: int(values[prefix + f.name]) if f.type == "int"
        else values[prefix + f.name]
        for f in dataclasses.fields(view)
        if prefix + f.name in values
    }


# -- the declaration table -----------------------------------------------------


@dataclass(frozen=True)
class Series:
    """One exported series and the :class:`ServeStats` field it fills.

    ``field`` is the dotted path of the view field (``mean_x*requests``
    for the sum a mean is derived from). ``kind`` is ``counter``,
    ``histogram``, or a gauge's cross-shard merge policy: ``sum`` for
    levels and resident sizes, ``max`` for high-water marks whose
    per-shard peaks never coincided. ``key`` names the label whose
    values key a dict-valued view field; ``labels`` lists the labels a
    label-blind series always carries. A series with neither is
    created at zero, so a fresh service exports every one of them.
    """

    field: str
    name: str
    kind: str
    help: str
    key: str | None = None
    labels: tuple = ()

    def create(self, registry: MetricsRegistry):
        """Get or create this series in ``registry`` → its handle."""
        if self.kind == "counter":
            metric = registry.counter(self.name, self.help)
            zero = (0.0,)
            touch = metric.inc
        elif self.kind == "histogram":
            metric = registry.histogram(self.name, self.help, WAIT_BUCKETS_S)
            zero = ([0] * (len(WAIT_BUCKETS_S) + 1), 0.0)
            touch = metric.load
        else:
            metric = registry.gauge(self.name, self.help, merge=self.kind)
            zero = (0.0,)
            touch = metric.set_max
        if self.key is None and not self.labels:
            touch(*zero)  # adds nothing to a series that already has samples
        return metric

    def read(self, registry: MetricsRegistry):
        """This series' view value: folded label-blind, or per ``key``."""
        metric = registry.get(self.name)
        samples = metric.samples() if metric is not None else {}
        if self.key is None:
            return self._fold(metric, list(samples.values()))
        groups: dict = {}
        for labels, value in samples.items():
            groups.setdefault(dict(labels).get(self.key, ""), []).append(value)
        return {
            label: self._fold(metric, values)
            for label, values in sorted(groups.items())
        }

    def _fold(self, metric, values: list):
        if self.kind == "histogram":
            bounds = metric.bounds if metric is not None else WAIT_BUCKETS_S
            counts = [sum(bucket) for bucket in zip(*(c for c, _ in values))]
            counts = counts or [0] * (len(bounds) + 1)
            return WaitHistogram(
                bounds, counts, sum(counts), sum(s for _, s in values)
            )
        folded = max(values, default=0.0) if self.kind == "max" else sum(values)
        # both keyed scalar fields (lane depth, per-model loads) are counts
        return folded if self.key is None else int(folded)


def _rows(kind: str, *rows: tuple) -> list:
    return [Series(row[0], row[1], kind, *row[2:]) for row in rows]


#: Every series the serving stack exports — the one place they are named.
SERIES: tuple = (
    *_rows(
        "counter",
        ("requests", "repro_requests_total", "completed rollout requests",
         None, ("model", "graph")),
        ("batches", "repro_batches_total", "executed batches"),
        ("steps", "repro_steps_total", "rollout steps computed"),
        ("mean_latency_s*requests", "repro_latency_seconds_total",
         "summed request latency (mean_latency_s * requests)"),
        ("mean_batch_size*requests", "repro_request_batch_size_total",
         "summed per-request batch sizes (mean_batch_size * requests)"),
        ("mean_queue_wait_s*requests", "repro_queue_wait_served_seconds_total",
         "summed queue wait of served requests (mean_queue_wait_s * requests)"),
        ("tile_hits", "repro_tile_cache_hits_total", "tiled-graph cache hits"),
        ("tile_misses", "repro_tile_cache_misses_total",
         "tiled-graph cache misses"),
        ("train_jobs", "repro_train_jobs_total", "completed training jobs"),
        ("train_s", "repro_train_seconds_total", "training wall seconds"),
        ("arena_reallocations", "repro_arena_reallocations_total",
         "worker-arena reallocations"),
        ("f32_batches", "repro_f32_batches_total",
         "batches served on the float32 tier"),
        ("ensemble_requests", "repro_ensemble_requests_total",
         "admitted ensemble requests"),
        ("ensemble_members", "repro_ensemble_members_total",
         "ensemble members executed"),
        ("ensemble_chunks", "repro_ensemble_chunks_total",
         "ensemble chunks dispatched"),
        ("ensemble_blow_ups", "repro_ensemble_blow_ups_total",
         "ensembles that tripped blow-up"),
        ("ensemble_early_stops", "repro_ensemble_early_stops_total",
         "ensembles early-stopped at the blow-up step"),
        ("admission.accepted", "repro_admission_accepted_total",
         "requests admitted to the queue"),
        ("admission.shed", "repro_admission_shed_total",
         "requests shed at admission"),
        ("admission.expired", "repro_admission_expired_total",
         "requests expired in the queue"),
        ("admission.expired_at_close", "repro_admission_expired_at_close_total",
         "requests expired during batch collection (subset of expired)"),
        ("scheduler.dispatches", "repro_sched_dispatches_total",
         "batches dispatched by the scheduler"),
        ("scheduler.affinity_hits", "repro_sched_affinity_hits_total",
         "lane grants landing on the lane's warm worker"),
        ("scheduler.affinity_steals", "repro_sched_affinity_steals_total",
         "lane grants stealing a lane pinned to a busy worker"),
        ("scheduler.edf_preemptions", "repro_sched_edf_preemptions_total",
         "grants where an earlier deadline beat arrival order"),
        ("scheduler.starvation_overrides",
         "repro_sched_starvation_overrides_total",
         "grants forced by the per-lane skip bound"),
        ("scheduler.warm_key_batches", "repro_sched_warm_key_batches_total",
         "batches executed by a worker that had served the key before"),
        ("cache.hits", "repro_graph_cache_hits_total", "graph-cache hits"),
        ("cache.misses", "repro_graph_cache_misses_total", "graph-cache misses"),
        ("cache.evictions", "repro_graph_cache_evictions_total",
         "graph-cache evictions"),
        ("cache.evicted_reload_s",
         "repro_graph_cache_evicted_reload_seconds_total",
         "reload cost of evicted graph assets"),
        ("cache.plan_build_s", "repro_graph_cache_plan_build_seconds_total",
         "aggregation-plan compile seconds"),
        ("registry.per_model_loads", "repro_model_loads_total",
         "model checkpoint loads", "model"),
        ("registry.evictions", "repro_model_evictions_total", "model evictions"),
    ),
    *_rows(
        "sum",
        ("queue_depth", "repro_queue_depth", "requests pending now"),
        # summed, unlike the other high-water marks: arenas are
        # persistent pools that only grow (to a bound) and then stay
        # resident, so every shard sits at its high water at once — the
        # sum IS the cluster's steady resident arena cost
        ("arena_bytes_high_water", "repro_arena_pooled_bytes_high_water",
         "resident worker-arena bytes at high water"),
        ("cache.entries", "repro_graph_cache_entries",
         "resident graph-cache entries"),
        ("cache.resident_bytes", "repro_graph_cache_resident_bytes",
         "resident graph-cache bytes"),
        ("registry.registered", "repro_models_registered",
         "registered model names"),
        ("registry.resident", "repro_models_resident",
         "models resident in memory"),
        ("scheduler.lanes", "repro_sched_lanes",
         "lanes with pending requests now"),
        ("scheduler.lane_depth", "repro_sched_lane_depth",
         "requests pending per lane now", "lane"),
    ),
    *_rows(
        "max",
        ("queue_depth_high_water", "repro_queue_depth_high_water",
         "peak queue depth"),
        ("max_batch_size", "repro_max_batch_size", "largest executed batch"),
        ("max_latency_s", "repro_max_latency_seconds", "worst request latency"),
        ("scheduler.lane_depth_high_water", "repro_sched_lane_depth_high_water",
         "peak single-lane depth"),
    ),
    *_rows(
        "histogram",
        ("admission.queue_wait", "repro_queue_wait_seconds",
         "queue wait of admitted requests (served and expired)"),
        ("scheduler.lane_wait", "repro_lane_wait_seconds",
         "queue wait of dispatched requests, labeled per lane", "lane"),
    ),
)


def declare(registry: MetricsRegistry | None = None) -> tuple:
    """Create :data:`SERIES` in ``registry`` → ``(registry, handles)``.

    What a recorder keeps to update its series: the registry (a private
    one when none is given, as for a recorder built on its own) and
    ``{field path: handle}``. Idempotent: declaring into a registry
    that already has the series returns the same handles and resets
    nothing, so recorders sharing one registry (and a queue rebuilt
    after ``stop()``) keep accumulating.
    """
    if registry is None:
        registry = MetricsRegistry()
    return registry, {row.field: row.create(registry) for row in SERIES}


# -- rendering -----------------------------------------------------------------


def _wait_quantiles(admission: AdmissionStats) -> str:
    """Render bucket-upper-bound quantiles of the queue-wait histogram."""
    hist = admission.queue_wait
    if hist.total == 0:
        return "- / - / -"

    def fmt(q: float) -> str:
        bound = hist.quantile(q)
        return "inf" if bound == float("inf") else f"<={bound * 1e3:.0f}"

    return f"{fmt(0.5)} / {fmt(0.9)} / {fmt(0.99)}"


def _per_request(value: float, requests: int, scale: float = 1.0) -> str:
    """Format a per-request statistic, or ``-`` when nothing was served.

    A zero-request snapshot has no meaningful mean/max — rendering
    ``0.00`` would read as "requests were instant". The guard also
    swallows ``nan`` from foreign/deserialized snapshots whose means
    were computed by a buggy producer: a dashboard row must never show
    ``nan``.
    """
    if requests == 0 or math.isnan(value):
        return "-"
    return f"{value * scale:.2f}"


def stats_markdown(stats: ServeStats) -> str:
    """Render a serving-stats snapshot as a markdown table.

    Zero-request snapshots render per-request statistics (mean batch
    size, batching factor, waits, latencies) as ``-`` placeholders —
    see :func:`_per_request`.
    """
    n = stats.requests
    rows = [
        ["requests served", stats.requests],
        ["batches executed", stats.batches],
        ["rollout steps computed", stats.steps],
        ["mean batch size", _per_request(stats.mean_batch_size, n)],
        ["max batch size", stats.max_batch_size if n else "-"],
        ["batching factor", _per_request(stats.batching_factor, stats.batches)],
        ["mean queue wait (ms)",
         _per_request(stats.mean_queue_wait_s, n, 1e3)],
        ["mean latency (ms)", _per_request(stats.mean_latency_s, n, 1e3)],
        ["max latency (ms)", _per_request(stats.max_latency_s, n, 1e3)],
        ["queue depth (now / high water)",
         f"{stats.queue_depth} / {stats.queue_depth_high_water}"],
        ["admission accepted / shed / expired",
         f"{stats.admission.accepted} / {stats.admission.shed} / "
         f"{stats.admission.expired}"],
        ["expired at batch close", stats.admission.expired_at_close],
        ["queue wait p50 / p90 / p99 (ms)", _wait_quantiles(stats.admission)],
        ["scheduler dispatches / lanes pending",
         f"{stats.scheduler.dispatches} / {stats.scheduler.lanes}"],
        ["affinity hits / steals",
         f"{stats.scheduler.affinity_hits} / "
         f"{stats.scheduler.affinity_steals}"],
        ["EDF preemptions / starvation overrides",
         f"{stats.scheduler.edf_preemptions} / "
         f"{stats.scheduler.starvation_overrides}"],
        ["warm-key batches", stats.scheduler.warm_key_batches],
        ["lane depth high water", stats.scheduler.lane_depth_high_water],
        ["tiled-graph cache hits / misses",
         f"{stats.tile_hits} / {stats.tile_misses}"],
        ["train jobs / wall (ms)",
         f"{stats.train_jobs} / {stats.train_s * 1e3:.2f}"],
        ["worker-arena reallocations", stats.arena_reallocations],
        ["worker-arena bytes pooled (high water)",
         stats.arena_bytes_high_water],
        ["f32 batches", stats.f32_batches],
        ["ensembles (requests / members / chunks)",
         f"{stats.ensemble_requests} / {stats.ensemble_members} / "
         f"{stats.ensemble_chunks}"],
        ["ensemble blow-ups / early stops",
         f"{stats.ensemble_blow_ups} / {stats.ensemble_early_stops}"],
        ["graph-cache hit rate",
         _per_request(stats.cache.hit_rate,
                      stats.cache.hits + stats.cache.misses)],
        ["graph-cache entries / bytes",
         f"{stats.cache.entries} / {stats.cache.resident_bytes}"],
        ["graph-cache evictions", stats.cache.evictions],
        ["evicted reload cost (ms)",
         f"{stats.cache.evicted_reload_s * 1e3:.2f}"],
        ["plan_build_s (ms total)", f"{stats.cache.plan_build_s * 1e3:.2f}"],
        ["models registered / resident",
         f"{stats.registry.registered} / {stats.registry.resident}"],
        ["model loads / evictions",
         f"{stats.registry.loads} / {stats.registry.evictions}"],
    ]
    return markdown_table(["metric", "value"], rows)
