"""Fixtures shared by every test directory."""

import pytest
from hypothesis import settings

from repro.obs.registry import MetricsRegistry
from repro.serve.metrics import SERIES, declare


#: the CI ``fuzz`` job's corpus (``--hypothesis-profile=fuzz``): fixed
#: seed, 50x the default examples. Only properties that leave
#: ``max_examples`` to the profile scale with it — today
#: ``tests/properties/test_wire_fuzz.py``.
settings.register_profile(
    "fuzz", max_examples=5000, derandomize=True, deadline=None
)


def _registry_of(fields: dict) -> MetricsRegistry:
    """A registry whose series hold ``fields``.

    Keys are :class:`~repro.serve.metrics.ServeStats` field paths
    (``"requests"``, ``"cache.hits"``); a ``mean_*`` key is stored as
    the sum it is exported as (``mean * requests``); dict values fill a
    label-keyed series, :class:`~repro.serve.metrics.WaitHistogram`
    values a histogram. Goes through the declaration table, so it
    knows no series names of its own.
    """
    registry, handles = declare()
    rows = {row.field: row for row in SERIES}
    for path, value in fields.items():
        if path.startswith("mean_"):
            path, value = path + "*requests", value * fields["requests"]
        row, metric = rows[path], handles[path]
        keyed = value.items() if row.key else [("-", value)]
        for label, v in keyed:
            labels = {name: label for name in (row.key, *row.labels) if name}
            if row.kind == "counter":
                metric.inc(v, **labels)
            elif row.kind == "histogram":
                metric.load(v.counts, v.sum_s, **labels)
            else:
                metric.set(v, **labels)
    return registry


@pytest.fixture()
def registry_of():
    """Factory fixture: :func:`_registry_of`."""
    return _registry_of


@pytest.fixture()
def merged_view():
    """Factory fixture: the stats view of registries merged as shards."""
    from repro.serve.metrics import ServeStats

    def view(*registries: MetricsRegistry) -> ServeStats:
        merged = MetricsRegistry()
        for i, registry in enumerate(registries):
            merged.merge(registry.relabel(shard=f"s{i}"))
        return ServeStats.from_registry(merged)

    return view
