"""Tier-1 guard: the public API surface never drifts unreviewed.

Runs the same comparison as ``tools/check_api.py`` (which CI also
executes as a standalone step), so an export rename or a signature
change fails the ordinary test run with instructions, not just CI.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_api import (  # noqa: E402 - needs the tools/ path above
    PUBLIC_MODULES,
    SNAPSHOT_PATH,
    render_surface,
)


def test_snapshot_matches_code():
    assert SNAPSHOT_PATH.exists(), (
        "docs/api_surface.txt missing — run `python tools/check_api.py "
        "--update` and commit it"
    )
    committed = SNAPSHOT_PATH.read_text(encoding="utf-8")
    rendered = render_surface()
    assert committed == rendered, (
        "public API surface drifted from docs/api_surface.txt; review the "
        "change, then refresh with `python tools/check_api.py --update`"
    )


def test_surface_covers_the_engine_api():
    """The snapshot names the redesign's load-bearing exports."""
    assert PUBLIC_MODULES == (
        "repro.runtime",
        "repro.cluster",
        "repro.serve",
        "repro.obs",
        "repro.ensemble",
    )
    text = SNAPSHOT_PATH.read_text(encoding="utf-8")
    for export in (
        "def connect",
        "class Engine(ABC)",
        "class LocalEngine(_ServiceEngine)",
        "class PooledEngine(_ServiceEngine)",
        "class RemoteEngine(Engine)",
        "class ClusterEngine(Engine)",
        "class HashRing",
        "class ShardState(Enum)",
        "class NoShardAvailable(ShardError)",
        "class RolloutRequest",
        "class TrainRequest",
        "class CapabilityError",
        "from_registry(registry",
        "class TraceBuffer",
        "class MetricsRegistry",
        "class HotLoopProfiler",
        "def mint_trace_id",
        "class EnsembleRequest",
        "class PerturbationSpec",
        "class SummaryFrame",
        "class StabilityConfig",
        "class BlowUp",
        "def reduce_frame",
    ):
        assert export in text, f"{export!r} fell out of the public surface"
    for removed in ("class ServeClient", "class NetworkClient"):
        assert removed not in text, f"{removed!r} shim resurfaced"


def test_render_is_deterministic():
    assert render_surface() == render_surface()
