"""`python -m repro bench` must emit a self-consistent JSON artifact."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.perf import bench


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_inference.json"
    rc = repro_main(["bench", "--quick", "--output", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


def test_quick_bench_artifact_schema(artifact):
    assert artifact["bench"] == "inference"
    assert artifact["quick"] is True
    ops = artifact["ops"]
    for op in ("scatter_add", "gather_backward"):
        assert set(ops[op]) == {"naive_s", "plan_s", "speedup"}
        assert ops[op]["naive_s"] > 0 and ops[op]["plan_s"] > 0
    roll = artifact["rollout_single_rank"]
    # two forward paths, one comparison: naive reference vs fused
    assert set(roll) == {
        "n_steps", "naive_s", "fused_s", "fused_speedup", "plan_build_s",
        "config",
    }
    assert roll["naive_s"] > 0 and roll["fused_s"] > 0
    assert roll["fused_speedup"] == roll["naive_s"] / roll["fused_s"]
    assert ops["plan_compile_s"] > 0


def test_scatter_plan_beats_add_at(artifact):
    # the headline claim: the compiled plan beats np.add.at on the
    # edge-aggregation scatter (generous CI margin; typical is ~3-4x)
    assert artifact["ops"]["scatter_add"]["speedup"] > 1.5


def test_render_mentions_every_section(artifact):
    text = bench.render(artifact)
    assert "scatter_add" in text
    assert "gather_backward" in text
    assert "rollout 1 rank" in text
    assert "plan compile" in text
