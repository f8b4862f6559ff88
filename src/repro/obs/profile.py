"""Opt-in per-op timing for the NMP hot loop.

The hot loop runs thousands of kernel calls per rollout, so the
instrumentation contract is strict: with no profiler installed, the
only cost a site pays is loading one module global (once per kernel
call) and an ``is None`` branch — no attribute lookups on live objects,
no closures, no context managers. The CI ``obs-overhead`` job
(``tools/check_obs_overhead.py``) asserts this off-path costs <1%
against the committed ``BENCH_inference.json``.

Sites: :func:`repro.gnn.rollout.workspace_steps` per step
(``rollout.step`` = ``rollout.edge_features`` +
``rollout.model_forward``); inside the model forward, one lap per block
of the fused kernels (:mod:`repro.tensor.fused`:
``fused.gather_concat``, ``fused_gemm``, ``fused.bias``, ``fused.elu``,
``fused.layer_norm``, ``fused.residual``, ``fused.degree_scale``), of
the layer's halo sync (:mod:`repro.gnn.message_passing`:
``halo.exchange``, ``halo.sync``) and of
:meth:`repro.tensor.aggregation.AggregationPlan.scatter_add`
(``plan.scatter_add``). Laps are laid end to end and **never nested**:
over a rollout every name outside ``rollout.*`` is a disjoint slice of
``rollout.model_forward``, so their sum over it is a coverage figure
that cannot pass 1 (``tests/obs/test_profile_coverage.py`` holds it in
``[0.90, 1.0]``). A new site inside the forward must keep that — time
a block that calls a timed block by restarting the clock after it.

With a profiler installed (:func:`install_profiler`), each
instrumented site calls ``prof.add(name, dt)`` with a perf-counter
delta (:func:`lap` is that call plus the next block's start); the profiler accumulates ``(count, total seconds)`` per op
name under a lock (the threaded multi-rank backends feed one profiler
from every rank).

Usage::

    prof = install_profiler()
    try:
        engine.rollout(request)
    finally:
        uninstall_profiler()
    print(prof.markdown())
"""

from __future__ import annotations

import threading
import time

#: the single installed profiler, or None (module global: the hot path
#: reads this once per call and branches on ``is None``)
_PROFILER = None


class HotLoopProfiler:
    """Accumulates ``(calls, total seconds)`` per instrumented op."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ops: dict = {}

    def add(self, name: str, dt: float) -> None:
        """Record one timed call of ``name`` (``dt`` seconds)."""
        with self._lock:
            entry = self._ops.get(name)
            if entry is None:
                self._ops[name] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt

    def snapshot(self) -> dict:
        """``{op: {"calls": n, "total_s": s, "mean_s": s/n}}`` (copied)."""
        with self._lock:
            return {
                name: {
                    "calls": calls,
                    "total_s": total,
                    "mean_s": total / calls if calls else 0.0,
                }
                for name, (calls, total) in self._ops.items()
            }

    def reset(self) -> None:
        with self._lock:
            self._ops.clear()

    def markdown(self) -> str:
        snap = self.snapshot()
        if not snap:
            return "(no profiled ops)"
        header = "| op | calls | total (ms) | mean (us) |"
        rule = "|---|---|---|---|"
        rows = []
        for name in sorted(snap, key=lambda n: -snap[n]["total_s"]):
            s = snap[name]
            rows.append(
                f"| {name} | {s['calls']} | {s['total_s'] * 1e3:.2f} "
                f"| {s['mean_s'] * 1e6:.1f} |"
            )
        return "\n".join([header, rule, *rows])


def lap(prof: HotLoopProfiler, name: str, t0: float) -> float:
    """Close the profiled block ``name`` begun at ``t0``; return the
    next block's start (``t0 = lap(prof, name, t0)`` behind the site's
    ``if prof is not None``). Blocks are laid end to end, never nested."""
    now = time.perf_counter()
    prof.add(name, now - t0)
    return now


def install_profiler(profiler: HotLoopProfiler | None = None) -> HotLoopProfiler:
    """Install (and return) the process-wide hot-loop profiler.

    Process-global, like the aggregation-plan switch: threaded rank
    worlds must all feed the same profiler. Installing replaces any
    previous profiler.
    """
    global _PROFILER
    if profiler is None:
        profiler = HotLoopProfiler()
    _PROFILER = profiler
    return profiler


def uninstall_profiler() -> None:
    """Remove the installed profiler (hot paths return to the off-path)."""
    global _PROFILER
    _PROFILER = None


def current_profiler() -> HotLoopProfiler | None:
    """The installed profiler, or None (the hot-path read)."""
    return _PROFILER
