#!/usr/bin/env python
"""Observability-overhead check: tracing OFF must stay within budget.

The contract (see ``repro/obs/profile.py``): with no profiler
installed, the hot-loop instrumentation costs one module-global read
and an ``is None`` branch per gated site — the serving fast path must
not regress. This checker enforces that against the committed
``BENCH_inference.json``:

* The committed baseline and a fresh tracing-OFF bench run each carry
  a ``rollout_single_rank`` pair (naive vs fused). Absolute times are
  machine-dependent, so the comparison is on the *normalized ratio*
  ``fused_s / naive_s`` — the naive reference has no stepping-loop or
  GEMM gates, so machine speed cancels and what remains is the relative
  cost of the fused inference path (the one production runs), gates
  included. Its speedup floor is held separately by
  ``tools/check_numerics.py``.
* The fresh OFF ratio may exceed the committed ratio by at most
  ``--max-regress-pct`` percent (default 1, the budget in the issue).
* Like for like: the quick mesh has a structurally different
  fused/naive ratio than the full one, so the OFF run must be the same
  mode (``"quick"`` flag) as the baseline — the committed baseline is a
  full-mode run (~10 s), and a mismatch is refused, not compared.
* When a tracing-ON document is supplied (``--on``), it must declare
  ``"tracing": true`` and contain a non-empty per-op profile —
  proving the instrumentation actually fires when installed — and the
  checker refuses to treat it as an OFF run.

CI (the ``obs-overhead`` job) runs::

    python -m repro bench --output OFF.json
    python -m repro bench --quick --trace --output ON.json
    python tools/check_obs_overhead.py --off OFF.json --on ON.json

Exit 0 when within budget; exit 1 with the measured numbers otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO_ROOT / "BENCH_inference.json"


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _ratio(doc: dict, label: str) -> float:
    """``fused_s / naive_s`` of the single-rank rollout (lower = faster)."""
    try:
        r = doc["rollout_single_rank"]
        naive, fused = float(r["naive_s"]), float(r["fused_s"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f"obs overhead: {label} has no usable rollout_single_rank: {exc}"
        )
    if naive <= 0:
        raise SystemExit(f"obs overhead: {label} naive_s is non-positive")
    return fused / naive


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert the tracing-off serving path stays within "
        "budget of the committed benchmark baseline",
    )
    parser.add_argument(
        "--off", required=True, metavar="OFF.json",
        help="fresh `python -m repro bench` output (tracing off, same "
        "mode as the baseline)",
    )
    parser.add_argument(
        "--on", default=None, metavar="ON.json",
        help="fresh `... bench --quick --trace` output; checked for a "
        "non-empty hot-loop profile",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH), metavar="PATH",
        help="committed baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--max-regress-pct", type=float, default=1.0, metavar="PCT",
        help="allowed off-path ratio regression vs the baseline "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    off = _load(Path(args.off))
    baseline = _load(Path(args.baseline))
    if off.get("tracing"):
        raise SystemExit(
            f"obs overhead: {args.off} was recorded with tracing ON — "
            f"it cannot stand in for the off path"
        )
    if baseline.get("tracing"):
        raise SystemExit(
            f"obs overhead: baseline {args.baseline} was recorded with "
            f"tracing ON — regenerate it without --trace"
        )

    if bool(off.get("quick")) != bool(baseline.get("quick")):
        raise SystemExit(
            f"obs overhead: {args.off} (quick={off.get('quick')}) and baseline "
            f"{args.baseline} (quick={baseline.get('quick')}) are different "
            f"bench modes — their ratios are not comparable"
        )

    base_ratio = _ratio(baseline, "baseline")
    off_ratio = _ratio(off, "off run")
    regress_pct = (off_ratio / base_ratio - 1.0) * 100.0
    print(
        f"obs overhead: fused/naive ratio baseline={base_ratio:.4f} "
        f"off={off_ratio:.4f} regression={regress_pct:+.2f}% "
        f"(budget {args.max_regress_pct:.2f}%)"
    )

    failed = False
    if regress_pct > args.max_regress_pct:
        print(
            f"obs overhead: tracing-off fused path regressed "
            f"{regress_pct:.2f}% > {args.max_regress_pct:.2f}% budget — "
            f"the hot-loop gates are no longer free",
            file=sys.stderr,
        )
        failed = True

    if args.on is not None:
        on = _load(Path(args.on))
        if not on.get("tracing"):
            print(
                f"obs overhead: {args.on} does not declare tracing on — "
                f"was it run with --trace?",
                file=sys.stderr,
            )
            failed = True
        profile = on.get("profile") or {}
        if not profile:
            print(
                "obs overhead: tracing-on run recorded no profiled ops — "
                "the instrumentation is not firing",
                file=sys.stderr,
            )
            failed = True
        else:
            ops = ", ".join(sorted(profile))
            print(f"obs overhead: tracing-on profile covers: {ops}")

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
