"""Smoke tests: every example script runs to completion.

The examples carry their own assertions (consistency checks, training
convergence), so a clean exit is a real end-to-end verification, not
just an import check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"

# the example subprocesses need src/ importable regardless of whether
# the invoking pytest got it from PYTHONPATH or pyproject's pythonpath
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(REPO_ROOT / "src")]
    + ([_ENV["PYTHONPATH"]] if _ENV.get("PYTHONPATH") else [])
)

FAST_EXAMPLES = [
    "quickstart.py",
    "element_graphs.py",
    "partitioning_walkthrough.py",
    "solver_in_the_loop.py",
    "complex_geometry.py",
    "serving_demo.py",
    "serving_network_demo.py",
]


def test_examples_directory_complete():
    found = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    for name in FAST_EXAMPLES + ["consistency_demo.py", "surrogate_rollout.py",
                                 "scaling_study.py"]:
        assert name in found, f"example {name} missing"


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_ENV,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
