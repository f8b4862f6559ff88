"""Report emitters: render experiment results as markdown/CSV.

Used by the ``python -m repro`` entry point and by EXPERIMENTS.md
regeneration; kept free of any printing side effects so tests can
assert on the rendered strings.
"""

from __future__ import annotations

import io
from typing import Sequence


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a GitHub-flavored markdown table.

    Cells are stringified; floats are shown with sensible precision.
    """
    if not headers:
        raise ValueError("headers must be non-empty")

    def fmt(cell) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1e5 or abs(cell) < 1e-3:
                return f"{cell:.2e}"
            return f"{cell:.4g}"
        return str(cell)

    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(lines)


def csv_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as CSV (no quoting needs expected for numeric data)."""
    buf = io.StringIO()
    buf.write(",".join(str(h) for h in headers) + "\n")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row length mismatch")
        buf.write(",".join(repr(c) if isinstance(c, float) else str(c) for c in row) + "\n")
    return buf.getvalue()


def fig7_markdown(data: dict, loading: str = "512k") -> str:
    """Markdown rendering of one loading's Fig. 7 efficiency block."""
    curves = data[loading]
    names = sorted(curves)
    ranks = curves[names[0]]["ranks"]
    headers = ["curve"] + [str(r) for r in ranks]
    rows = [
        [name] + [f"{e:.1f}" for e in curves[name]["efficiency"]] for name in names
    ]
    return markdown_table(headers, rows)


def fig8_markdown(data: dict, loading: str = "512k") -> str:
    """Markdown rendering of one loading's Fig. 8 relative-throughput block."""
    curves = data[loading]
    names = sorted(curves)
    ranks = curves[names[0]]["ranks"]
    headers = ["curve"] + [str(r) for r in ranks]
    rows = [
        [name] + [f"{v:.2f}" for v in curves[name]["relative"]] for name in names
    ]
    return markdown_table(headers, rows)


def table2_markdown(stats_rows) -> str:
    """Markdown rendering of Table II from PartitionStats objects."""
    headers = [
        "ranks",
        "nodes min/max/avg (k)",
        "halo min/max/avg (k)",
        "neighbors min/max/avg",
    ]
    rows = []
    for st in stats_rows:
        rows.append(
            [
                st.ranks,
                "/".join(f"{v / 1e3:.1f}" for v in st.graph_nodes),
                "/".join(f"{v / 1e3:.1f}" for v in st.halo_nodes),
                "/".join(f"{v:.1f}" for v in st.neighbors),
            ]
        )
    return markdown_table(headers, rows)
