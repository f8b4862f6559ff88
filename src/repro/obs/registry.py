"""Unified metrics registry: counters, gauges, histograms, labels.

The serving stack's one metrics *storage*: every recorder (admission,
scheduler, caches, the service's batch accounting) updates series in
its service's registry directly, and :class:`~repro.serve.metrics.
ServeStats` is a read-only view computed from one
(:meth:`~repro.serve.metrics.ServeStats.from_registry`). Merging shard
registries therefore *is* merging stats. Three metric kinds:

* :class:`Counter` — monotone totals; merge by summing.
* :class:`Gauge` — point-in-time levels; each gauge declares its merge
  policy (``sum`` for extensive quantities like queue depth and
  resident bytes, ``max`` for high-water marks).
* :class:`Histogram` — bucketed distributions (queue-wait); merge by
  summing per-bucket counts.

Samples are keyed by sorted label tuples (``model``/``graph``/
``shard``); :meth:`MetricsRegistry.relabel` stamps a shard label onto
every sample so per-shard registries merge into one cluster view
without collisions. :meth:`MetricsRegistry.prometheus_text` renders
the standard text exposition format (served by the ``metrics`` wire op
and the ``--metrics-port`` HTTP endpoint); :meth:`snapshot` /
:meth:`from_snapshot` round-trip through JSON for the wire.

Stdlib-only; thread-safe via one registry-wide re-entrant lock:
:meth:`MetricsRegistry.atomic` holds it across several updates so no
reader sees half of them, and :meth:`snapshot`, :meth:`relabel`,
:meth:`merge` and :meth:`prometheus_text` read every series under one
hold of it. The registry never calls out while holding
it, so an owner may update series under its own lock (owner lock →
registry lock, never the reverse).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Iterable, Sequence

_GAUGE_MERGES = ("sum", "max")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(key: tuple, extra: Sequence[tuple] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


class _Metric:
    """Shared shape: name, help text, samples keyed by label tuples."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._samples: dict = {}

    def samples(self) -> dict:
        """``{label_tuple: value}`` snapshot (values copied)."""
        with self._lock:
            return {k: self._copy_value(v) for k, v in self._samples.items()}

    @staticmethod
    def _copy_value(value):
        return value

    def labelsets(self) -> list:
        with self._lock:
            return sorted(self._samples)


class Counter(_Metric):
    """Monotone total; merges across shards by summing."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labelset (label-blind rollup)."""
        with self._lock:
            return sum(self._samples.values())


class Gauge(_Metric):
    """Point-in-time level with an explicit cross-shard merge policy."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, lock: threading.Lock, merge: str = "sum"
    ):
        super().__init__(name, help, lock)
        if merge not in _GAUGE_MERGES:
            raise ValueError(f"gauge merge must be one of {_GAUGE_MERGES}")
        self.merge = merge

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = float(value)

    def set_max(self, value: float, **labels) -> None:
        """Raise the level to ``value`` if it is higher (high-water marks)."""
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = max(self._samples.get(key, 0.0), float(value))

    def value(self, **labels) -> float:
        with self._lock:
            return self._samples.get(_label_key(labels), 0.0)


class Histogram(_Metric):
    """Bucketed distribution; per-labelset ``(counts, sum)`` state.

    ``bounds`` are finite upper bucket edges; an implicit ``+Inf``
    bucket catches the overflow, so ``counts`` has ``len(bounds) + 1``
    entries. Merging sums counts and sums.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        bounds: Sequence[float],
    ):
        super().__init__(name, help, lock)
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be ascending")

    def observe(self, value: float, **labels) -> None:
        """Count ``value`` into the first bucket whose bound is ``>=`` it."""
        key = _label_key(labels)
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            # readers only ever see copies (_copy_value), so in place
            counts, total = self._samples.get(
                key, ([0] * (len(self.bounds) + 1), 0.0)
            )
            counts[idx] += 1
            self._samples[key] = (counts, total + float(value))

    def load(self, counts: Sequence[int], sum_s: float, **labels) -> None:
        """Accumulate pre-bucketed counts (merging, or loading a snapshot)."""
        if len(counts) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} counts "
                f"(finite buckets + overflow), got {len(counts)}"
            )
        key = _label_key(labels)
        with self._lock:
            prev, total = self._samples.get(
                key, ([0] * (len(self.bounds) + 1), 0.0)
            )
            merged = [int(a) + int(b) for a, b in zip(prev, counts)]
            self._samples[key] = (merged, total + float(sum_s))

    @staticmethod
    def _copy_value(value):
        counts, total = value
        return (list(counts), total)


class MetricsRegistry:
    """Named metrics with get-or-create accessors and mergeable state.

    One re-entrant lock guards the whole registry: an update costs one
    uncontended acquire (~1 µs), and a reader holding it sees every
    series at the same instant.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: dict = {}

    def atomic(self):
        """Context manager: the updates made inside land as one step.

        No snapshot, copy or exposition observes some of them without
        the rest (one batch's counters; a shed count with its
        at-close share).
        """
        return self._lock

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "", merge: str = "sum") -> Gauge:
        metric = self._get_or_create(Gauge, name, help, merge=merge)
        if metric.merge != merge:
            raise ValueError(
                f"gauge {name!r} already registered with "
                f"merge={metric.merge!r}"
            )
        return metric

    def histogram(
        self, name: str, help: str = "", bounds: Sequence[float] = ()
    ) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, bounds=bounds)
        if metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with "
                f"bounds={metric.bounds}"
            )
        return metric

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def metrics(self) -> list:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def _frozen(self) -> list:
        """``(metric, samples copy)`` per metric, all of one instant."""
        with self._lock:
            return [(metric, metric.samples()) for metric in self.metrics()]

    # -- merge / relabel -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s samples into this registry (in place).

        Counters and histograms sum; gauges follow their declared
        policy (``sum`` or ``max``). Returns ``self`` for chaining.
        """
        for metric, samples in other._frozen():
            if isinstance(metric, Counter):
                mine = self.counter(metric.name, metric.help)
                with self._lock:
                    for key, value in samples.items():
                        mine._samples[key] = mine._samples.get(key, 0.0) + value
            elif isinstance(metric, Gauge):
                mine = self.gauge(metric.name, metric.help, merge=metric.merge)
                with self._lock:
                    for key, value in samples.items():
                        if metric.merge == "max":
                            mine._samples[key] = max(
                                mine._samples.get(key, float("-inf")), value
                            )
                        else:
                            mine._samples[key] = (
                                mine._samples.get(key, 0.0) + value
                            )
            elif isinstance(metric, Histogram):
                mine = self.histogram(
                    metric.name, metric.help, bounds=metric.bounds
                )
                for key, (counts, sum_s) in samples.items():
                    mine.load(counts, sum_s, **dict(key))
        return self

    def relabel(self, **labels) -> "MetricsRegistry":
        """A copy with ``labels`` stamped onto every sample.

        Used by the cluster engine to tag each shard's registry with
        ``shard=host:port`` before merging, so per-shard series stay
        distinguishable in the combined exposition. With no labels it
        is a point-in-time copy the caller may merge into freely.
        """
        out = MetricsRegistry()
        stamp = _label_key(labels)
        for metric, samples in self._frozen():
            if isinstance(metric, Counter):
                mine = out.counter(metric.name, metric.help)
            elif isinstance(metric, Gauge):
                mine = out.gauge(metric.name, metric.help, merge=metric.merge)
            else:
                mine = out.histogram(
                    metric.name, metric.help, bounds=metric.bounds
                )
            for key, value in samples.items():
                new_key = tuple(sorted({**dict(key), **dict(stamp)}.items()))
                mine._samples[new_key] = value
        return out

    # -- snapshots (wire) ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able document of one instant; :meth:`from_snapshot`
        round-trips it."""
        doc: dict = {}
        for metric, samples in self._frozen():
            entry: dict = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Gauge):
                entry["merge"] = metric.merge
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
                entry["samples"] = [
                    {"labels": dict(key), "counts": counts, "sum": sum_s}
                    for key, (counts, sum_s) in sorted(samples.items())
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(samples.items())
                ]
            doc[metric.name] = entry
        return doc

    @classmethod
    def from_snapshot(cls, doc: dict) -> "MetricsRegistry":
        """Invert :meth:`snapshot`; a document that is not one (it may
        be a peer's reply) is a :class:`ValueError`."""
        out = cls()
        try:
            for name, entry in doc.items():
                kind = entry.get("kind", "counter")
                if kind == "counter":
                    metric = out.counter(name, entry.get("help", ""))
                    for s in entry.get("samples", ()):
                        metric.inc(float(s["value"]), **s.get("labels", {}))
                elif kind == "gauge":
                    metric = out.gauge(
                        name, entry.get("help", ""),
                        merge=entry.get("merge", "sum"),
                    )
                    for s in entry.get("samples", ()):
                        metric.set(float(s["value"]), **s.get("labels", {}))
                elif kind == "histogram":
                    metric = out.histogram(
                        name, entry.get("help", ""),
                        bounds=entry.get("bounds", ()),
                    )
                    for s in entry.get("samples", ()):
                        metric.load(
                            s["counts"], float(s["sum"]), **s.get("labels", {})
                        )
                else:
                    raise ValueError(
                        f"unknown metric kind {kind!r} for {name!r}"
                    )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed metrics snapshot: {exc!r}") from None
        return out

    # -- exposition ------------------------------------------------------------

    def prometheus_text(self) -> str:
        """Standard Prometheus text exposition format (version 0.0.4)."""
        lines: list = []
        for metric, samples in self._frozen():
            if metric.help:
                help_text = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key in sorted(samples):
                    counts, sum_s = samples[key]
                    cumulative = 0
                    edges: Iterable = [
                        *(f"{b:g}" for b in metric.bounds), "+Inf",
                    ]
                    for count, le in zip(counts, edges):
                        cumulative += count
                        labels = _render_labels(key, [("le", le)])
                        lines.append(
                            f"{metric.name}_bucket{labels} {cumulative}"
                        )
                    lines.append(
                        f"{metric.name}_sum{_render_labels(key)} "
                        f"{_format_value(sum_s)}"
                    )
                    lines.append(
                        f"{metric.name}_count{_render_labels(key)} {cumulative}"
                    )
            else:
                for key in sorted(samples):
                    lines.append(
                        f"{metric.name}{_render_labels(key)} "
                        f"{_format_value(samples[key])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
