#!/usr/bin/env python3
"""Compare two benchmark results, one row per (workload, end-to-end metric).

    python3 benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` are documents written by ``run.py --out``, or
directories of such documents (several runs of one commit, e.g. ten
seeds). Medians are compared against the bounds in ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: it improved by more than the bound;
* ``within bound``: neither;
* ``unresolved``: A's own run-to-run spread (interquartile range over
  median, needs >= 4 runs) is wider than the bound, so the bound cannot
  be read from these runs: unless every run of B beats every run of A,
  which counts as ``better``.

Every ratio is printed with its base. Exit code 1 on any ``worse`` or
any rise in ``failed_fraction``; 2 when the two sides are not
comparable (a ``--quick`` run against a full one, traced against not).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import harness


def load(path: str) -> list:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    docs = [json.loads(f.read_text()) for f in files]
    docs = [d for d in docs if d.get("benchmark") == "e2e"]
    if not docs:
        raise SystemExit(f"{path}: no benchmark documents")
    return docs


def spread(values: list) -> float:
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new / base - 1.0)  # > 0: B is worse
    if spread(a) > bound:
        clean_win = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if clean_win else "unresolved"), base, new
    if worse_by > bound:
        return "worse", base, new
    return ("better" if worse_by < -bound else "within bound"), base, new


def failed_fraction(docs: list, workload: str) -> float:
    runs = [d["workloads"][workload] for d in docs if workload in d["workloads"]]
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_docs, b_docs = load(argv[0]), load(argv[1])
    for key in ("quick", "traced"):
        stamps = {bool(d.get(key)) for d in a_docs + b_docs}
        if len(stamps) > 1:
            print(f"refusing to compare: the documents disagree on {key!r}", file=sys.stderr)
            return 2
    if a_docs[0].get("traced"):
        print("refusing to compare traced runs: end-to-end metrics come from untraced runs", file=sys.stderr)
        return 2
    contract = harness.load_contract()
    bad = False
    print(f"{'workload':18s} {'metric':18s} {'verdict':13s} {'B / A':>8s} {'A (base)':>14s} {'B':>14s} "
          f"{'A spread':>9s} {'bound':>6s}  unit")
    for workload in (w["name"] for w in contract["workloads"]):
        sides = [[d["workloads"][workload] for d in docs if workload in d["workloads"]]
                 for docs in (a_docs, b_docs)]
        if not all(sides):
            continue
        for metric in contract["end_to_end"]:
            a, b = ([r["metrics"][metric["name"]] for r in side] for side in sides)
            word, base, new = verdict(a, b, metric["better"], metric["bound"])
            bad |= word == "worse"
            print(f"{workload:18s} {metric['name']:18s} {word:13s} {new / base:8.4f} {base:14.6g} "
                  f"{new:14.6g} {spread(a):9.4f} {metric['bound']:6.2f}  {metric['unit']}")
        fa, fb = failed_fraction(a_docs, workload), failed_fraction(b_docs, workload)
        word = "worse" if fb > fa else "within bound"
        bad |= fb > fa
        print(f"{workload:18s} {'failed_fraction':18s} {word:13s} {'':8s} {fa:14.6g} {fb:14.6g} "
              f"{'':9s} {0:6.2f}  ratio")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
