#!/usr/bin/env python3
"""Self-test of the benchmark harness (plain asserts, about a minute).

    python3 benchmarks/e2e/selftest.py

Checks the pieces a wrong number could hide behind: the percentile
helper, seed determinism of the generated inputs, that the emitted
metric names are exactly the ones ``BENCHMARK.json`` declares, that the
*exact* per-layer counts repeat between two runs, that a failed output
check fails the run, and that ``compare.py`` refuses a quick run
against a full one.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

import harness

os.environ.update(harness.THREAD_ENV)  # before numpy is first imported
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*argv) -> tuple:
    """``run.py`` with ``argv``: (exit code, the one-object last line, the --out document)."""
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
        out = os.path.join(tmp, "doc.json")
        proc = subprocess.run([sys.executable, str(harness.HERE / "run.py"), *argv, "--out", out],
                              stdout=subprocess.PIPE, text=True)
        with open(out) as fh:
            return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh)


def test_percentile() -> None:
    p = harness.percentile
    assert p([5.0], 0.9) == 5.0
    assert p([1, 2, 3, 4], 0.5) == 2.5
    assert p([4, 1, 3, 2], 0.0) == 1 and p([4, 1, 3, 2], 1.0) == 4
    assert p(list(range(1, 102)), 0.9) == 91  # 101 samples: ten lie beyond the p90
    assert abs(p([10, 20, 30], 0.9) - 28.0) < 1e-12
    try:
        p([], 0.5)
    except ValueError:
        pass
    else:
        raise AssertionError("percentile of no samples must raise")


def test_seeds() -> None:
    sys.path.insert(0, str(harness.REPO_ROOT / "src"))
    from repro.mesh import BoxMesh

    pos = BoxMesh(2, 2, 2, p=2).all_positions()

    def generated(seed):
        seeds = harness.derive_seeds(seed)
        x0 = harness.noisy_taylor_green(pos, seeds["noise"])
        return seeds, x0.tobytes(), harness.mixed_schedule(seeds["order"], 2, 64, 4).tobytes()

    assert generated(7) == generated(7), "same seed must give byte-identical inputs"
    a, b = generated(7), generated(8)
    assert a[1] != b[1] and a[2] != b[2] and a[0] != b[0], "another seed must give other inputs"


def test_contract(contract: dict) -> None:
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in contract[kind]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in contract["end_to_end"])
    assert set(harness.EXACT_COUNTS) <= {m["name"] for m in contract["per_layer"]}


def test_runs(contract: dict) -> None:
    workload_names = {w["name"] for w in contract["workloads"]}
    code, last, doc = run("--quick")
    assert code == 0 and last["correct"] and last["failed"] == 0, last
    assert doc["quick"] is True and set(doc["workloads"]) == workload_names
    declared = {m["name"] for m in contract["end_to_end"]}
    for name, result in doc["workloads"].items():
        assert set(result["metrics"]) == declared, name
        assert result["failed"] == 0 and result["hygiene"][0]["nproc"] >= 1
    assert set(last["metrics"]) == {f"{w}.{m}" for w in workload_names for m in declared}

    traced = [run("--quick", "--traced", "--workload", "rollout_r1") for _ in range(2)]
    declared = {m["name"] for m in contract["per_layer"]}
    for code, last, doc in traced:
        assert code == 0 and set(last["metrics"]) == declared
        chrome = json.loads((harness.REPO_ROOT / doc["workloads"]["rollout_r1"]["trace_file"]).read_text())
        assert chrome["traceEvents"] and all(e["ph"] == "X" for e in chrome["traceEvents"])
    first, second = (t[1]["metrics"] for t in traced)
    drift = {n: (first[n]["value"], second[n]["value"]) for n in harness.EXACT_COUNTS
             if first[n]["value"] != second[n]["value"]}
    assert not drift, f"exact counts differ between two runs of one seed: {drift}"

    code, last, _ = run("--quick", "--workload", "rollout_r1", "--corrupt-reference")
    assert code != 0 and not last["correct"] and last["failed"] > 0, (code, last)


def test_compare_refuses_quick() -> None:
    def document(tmp, name, quick):
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump({"benchmark": "e2e", "quick": quick, "traced": False, "workloads": {}}, fh)
        return path

    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
        pair = [document(tmp, "a.json", True), document(tmp, "b.json", False)]
        code = subprocess.run([sys.executable, str(harness.HERE / "compare.py"), *pair],
                              stderr=subprocess.DEVNULL).returncode
        assert code == 2, code


def main() -> int:
    contract = harness.load_contract()
    harness.OUT_DIR.mkdir(exist_ok=True)
    test_percentile()
    test_seeds()
    test_contract(contract)
    test_compare_refuses_quick()
    test_runs(contract)
    print("benchmarks/e2e selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
