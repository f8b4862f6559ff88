"""Tier-1 guard: the serving stack's (ensemble layer included) and the
numerical core's code size never grows unreviewed.

Runs the same count as ``tools/check_loc.py`` (which CI also executes
as a standalone step) so a PR that pushes ``src/repro/{serve,runtime,
cluster,obs,tensor,gnn,comm,ensemble}`` past the committed ceiling
fails the ordinary test run.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_loc import CEILING, code_lines, count  # noqa: E402 - tools/ path above


def test_request_path_is_at_or_under_the_ceiling():
    total = sum(count(REPO_ROOT).values())
    assert total <= CEILING, (
        f"{total} code lines under the ratchet, ceiling is {CEILING}: "
        f"remove code, or raise CEILING in tools/check_loc.py deliberately"
    )


def test_only_code_counts():
    """Comments, blank lines and docstrings are free; a statement spread
    over several lines costs every line it touches."""
    source = '''"""Module docstring
spanning two lines."""

# a comment


def f(a,
      b):
    """Docstring."""
    # another comment
    text = """a string that is
    data, not documentation"""
    return a + b  # trailing comment
'''
    assert code_lines(source) == 5
    bare = "def f(a,\n      b):\n    text = 1\n    return a + b\n"
    assert code_lines(bare) == 4
