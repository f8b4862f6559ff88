"""Numerics benchmark: the float32 inference tier's error budget.

The float64 path is *bitwise* consistent — reference or fused, one rank
or many, every engine produces identical bits, and the test suite
asserts equality, not closeness. The float32 tier deliberately trades
that absolute guarantee for speed and memory, which raises the one
question an operator must be able to answer before opting in: **how
fast does the error grow over an autoregressive rollout?**

``python -m repro bench --numerics`` answers it empirically: roll the
bench model out in float64 (the canonical trajectory) and in float32
(a :func:`repro.gnn.architecture.cast_replica` stepping the same fused
loop), record the per-step maximum relative error, and assert the
committed bound. The per-step series is the product — relative error
*compounds* over steps (each step feeds the previous step's rounding
back through the network), so a single end-state number would hide the
growth rate. The running maximum is recorded alongside as an explicit
monotone series; CI (``tools/check_numerics.py``) fails the build if a
change pushes the measured error past the bound committed in
``BENCH_inference.json``.

The bound itself (:data:`F32_REL_ERROR_BOUND`) is a policy constant,
not a measurement: float32 has ~1.2e-7 relative rounding per op, the
bench model compounds it over MLP chains and ~tens of steps, and the
measured maximum sits around 1e-6; the committed bound leaves two
orders of magnitude of margin so the check flags *regressions* (a kernel
accidentally double-rounding, a cast landing in the wrong place), not
machine-to-machine noise.
"""

from __future__ import annotations

import numpy as np

from repro.gnn import GNNConfig, MeshGNN
from repro.gnn.architecture import cast_replica
from repro.gnn.rollout import rollout, workspace_steps
from repro.graph.distributed import build_full_graph
from repro.graph.plans import compile_graph_plans
from repro.mesh import BoxMesh, taylor_green_velocity

#: Committed per-step relative-error bound of the float32 tier on the
#: bench model (see module docstring for how the margin was chosen).
F32_REL_ERROR_BOUND = 1e-4

def per_step_relative_error(
    states32: list[np.ndarray], states64: list[np.ndarray]
) -> list[float]:
    """Max-norm relative error of each float32 step against the f64 one.

    Per step: ``||x32 - x64||_inf / ||x64||_inf`` — the worst absolute
    deviation scaled by the state's own magnitude. The max norm in the
    denominator (rather than elementwise division) keeps a state value
    passing through zero from reading as an infinite relative error;
    what an operator cares about is the error relative to the signal,
    not to individual near-zero entries.

    Pure function; the two trajectories must have equal length. Step 0
    (the initial state) is excluded — it is a pure dtype cast, and its
    error is the cast's, not the model's.
    """
    if len(states32) != len(states64):
        raise ValueError("trajectories must have equal length")
    errors = []
    for s32, s64 in zip(states32[1:], states64[1:]):
        diff = float(np.max(np.abs(s32.astype(np.float64) - s64)))
        scale = float(np.max(np.abs(s64)))
        errors.append(diff / scale if scale else diff)
    return errors


def running_max(values: list[float]) -> list[float]:
    """The monotone running maximum of a series (same length)."""
    out: list[float] = []
    peak = float("-inf")
    for v in values:
        peak = max(peak, v)
        out.append(peak)
    return out


def run_numerics(quick: bool = False) -> dict:
    """Roll out f32 vs f64 on the bench graph; return the error report.

    The float64 trajectory is produced by the fused inference path
    (after asserting it bitwise-equal to the reference ``Tensor`` op
    chain — the numerics report must never silently measure against a
    wrong baseline); the float32 trajectory steps a cast replica
    through the same loop.
    """
    mesh = BoxMesh(6, 6, 4, p=2) if quick else BoxMesh(8, 8, 6, p=2)
    n_steps = 10 if quick else 20
    config = GNNConfig(hidden=32, n_message_passing=2, n_mlp_hidden=1, seed=3)
    model = MeshGNN(config)
    graph = build_full_graph(mesh)
    graph.__dict__["_plans"] = compile_graph_plans(graph)
    x0 = taylor_green_velocity(mesh.all_positions())

    states64 = rollout(model, graph, x0, n_steps)
    reference = rollout(model, graph, x0, n_steps, workspace=False)
    f64_bitwise = all(
        (a == b).all() for a, b in zip(states64, reference)
    )
    if not f64_bitwise:
        raise AssertionError(
            "fused float64 rollout diverged from the reference op chain; "
            "the float32 error report would be measured against wrong bits"
        )

    replica = cast_replica(model, np.float32)
    states32: list[np.ndarray] = [x0.astype(np.float32)]
    workspace_steps(
        replica, graph, states32[0], n_steps, None, "n-a2a", False,
        lambda step, state: states32.append(np.array(state, copy=True)),
    )

    per_step = per_step_relative_error(states32, states64)
    peaks = running_max(per_step)
    return {
        "mesh": {
            "n_nodes": graph.n_local,
            "n_edges": graph.n_edges,
        },
        "n_steps": n_steps,
        "f64_bitwise_fused": True,
        "f32_dtype": str(states32[-1].dtype),
        "per_step_max_rel_error": per_step,
        "running_max_rel_error": peaks,
        "max_rel_error": peaks[-1],
        "bound": F32_REL_ERROR_BOUND,
    }


def render_numerics(doc: dict) -> str:
    """One-paragraph human rendering of a numerics report."""
    per_step = doc["per_step_max_rel_error"]
    lines = [
        f"float32 tier vs float64 canonical, {doc['n_steps']} steps on "
        f"{doc['mesh']['n_nodes']} nodes / {doc['mesh']['n_edges']} edges:",
        f"  step  1 max rel error: {per_step[0]:.3e}",
        f"  step {len(per_step):2d} max rel error: {per_step[-1]:.3e}",
        f"  trajectory max:        {doc['max_rel_error']:.3e}"
        f"  (bound {doc['bound']:.1e})",
    ]
    status = "OK" if doc["max_rel_error"] <= doc["bound"] else "EXCEEDED"
    lines.append(f"  bound check: {status}")
    return "\n".join(lines)
