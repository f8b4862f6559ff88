"""Tiled ensemble & uncertainty serving for the GNN surrogate.

The block-diagonal tiling built for multi-tenant batching is already
an ensemble machine: M perturbed copies of one initial condition are
M requests that share a :class:`~repro.runtime.api.BatchKey` and tile
into the same fused passes. This package adds the missing pieces —
the typed workload (:mod:`~repro.ensemble.api`), deterministic member
perturbation (:mod:`~repro.ensemble.perturb`), streaming mergeable
reducers that keep wire cost flat in M (:mod:`~repro.ensemble.reduce`),
long-horizon stability diagnostics (:mod:`~repro.ensemble.stability`),
and the lockstep driver every engine kind shares
(:mod:`~repro.ensemble.driver`).

Entry point: build an :class:`EnsembleRequest` and call
``engine.ensemble(request)`` on any engine. See
``examples/ensemble_demo.py``.
"""

from repro.ensemble.api import (
    EnsembleFuture,
    EnsembleRequest,
    EnsembleResult,
    PerturbationSpec,
    SummaryFrame,
)
from repro.ensemble.driver import (
    EnsembleHandle,
    MemberStream,
    SummaryStream,
    member_stream,
)
from repro.ensemble.perturb import member_rng, perturb_member, perturb_members
from repro.ensemble.reduce import (
    ALLOWED_SUMMARIES,
    DEFAULT_QUANTILES,
    DEFAULT_SUMMARIES,
    ReducerState,
    ensemble_divergence,
    energy_summary,
    kinetic_energy,
    merge_states,
    reduce_frame,
    reduce_summaries,
    welford,
)
from repro.ensemble.stability import (
    BlowUp,
    StabilityConfig,
    StabilityReport,
    StabilityTracker,
)

__all__ = [
    "ALLOWED_SUMMARIES",
    "DEFAULT_QUANTILES",
    "DEFAULT_SUMMARIES",
    "BlowUp",
    "EnsembleFuture",
    "EnsembleHandle",
    "EnsembleRequest",
    "EnsembleResult",
    "MemberStream",
    "PerturbationSpec",
    "ReducerState",
    "StabilityConfig",
    "StabilityReport",
    "StabilityTracker",
    "SummaryFrame",
    "SummaryStream",
    "ensemble_divergence",
    "energy_summary",
    "kinetic_energy",
    "member_rng",
    "member_stream",
    "merge_states",
    "perturb_member",
    "perturb_members",
    "reduce_frame",
    "reduce_summaries",
    "welford",
]
