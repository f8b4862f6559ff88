"""Typed ensemble workload: requests, summary frames, results, futures.

An :class:`EnsembleRequest` extends the shared
:class:`~repro.runtime.api.StreamRequest` shape with a perturbation
spec (seeded initial-condition noise and/or a parameter sweep), a
member count M, a summary selection, and optional stability
thresholds. Engines answer with a stream of :class:`SummaryFrame`s —
per-step reduced statistics whose size is independent of M (unless
``return_members`` opts into the full member states) — and a final
:class:`EnsembleResult` carrying the
:class:`~repro.ensemble.stability.StabilityReport`.

Execution decomposes the ensemble into M member
:class:`~repro.runtime.api.RolloutRequest`s (:meth:`EnsembleRequest.
member_requests`): each member's initial state is the deterministic
perturbation of the base state (:mod:`repro.ensemble.perturb`), so a
member's trajectory is bitwise-identical to serving that perturbed
state as its own request — the tiling contract extends to ensembles
for free. ``member_range`` carves a chunk out of a larger ensemble
(how the cluster router fans out across shards); the chunk reduces
into a partial :class:`~repro.ensemble.reduce.ReducerState` that
merges bitwise-exactly at the router.

Like every request here, arrays are float64-canonical at construction,
degenerate shapes are rejected with ``ValueError`` at the front door
(M=0, zero steps, negative noise — never a mid-rollout server
exception), and the ``trace_id`` minted at the engine front door rides
every member request and span.

Thread safety: requests are treated as immutable after construction;
futures are single-consumer. Determinism: summaries are pure functions
of the member trajectories, which are pure functions of the request.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from repro.ensemble.reduce import (
    ALLOWED_SUMMARIES,
    DEFAULT_QUANTILES,
    DEFAULT_SUMMARIES,
)
from repro.ensemble.stability import BlowUp, StabilityConfig, StabilityReport
from repro.runtime.api import (
    RolloutRequest,
    StreamFuture,
    StreamRequest,
    _request_ids,
)

__all__ = [
    "BlowUp",
    "EnsembleFuture",
    "EnsembleRequest",
    "EnsembleResult",
    "PerturbationSpec",
    "StabilityConfig",
    "StabilityReport",
    "SummaryFrame",
]


@dataclass(frozen=True)
class PerturbationSpec:
    """How the M members differ from the base state (immutable).

    ``noise_scale`` is the standard deviation of additive Gaussian
    initial-condition noise (0.0 disables); ``sweep`` is an optional
    per-member multiplicative factor on the base state (a parameter
    sweep — empty disables; when set, its length must equal the
    ensemble's member count). ``seed`` roots every member's private
    RNG stream — see :mod:`repro.ensemble.perturb` for the exact
    derivation and the reproducibility contract.
    """

    seed: int = 0
    noise_scale: float = 0.0
    sweep: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.noise_scale < 0:
            raise ValueError(
                f"noise_scale must be >= 0, got {self.noise_scale}"
            )
        object.__setattr__(self, "sweep", tuple(float(v) for v in self.sweep))
        if any(not np.isfinite(v) for v in self.sweep):
            raise ValueError("sweep factors must be finite")


@dataclass
class EnsembleRequest(StreamRequest):
    """An M-member perturbed-rollout ensemble with streamed summaries.

    The shared :class:`~repro.runtime.api.StreamRequest` shape plus the
    (keyword-only) ensemble fields. ``x0`` is the *base* global initial
    state; members are derived from it deterministically server-side
    (the request ships one state, never M). ``summaries`` selects what
    each :class:`SummaryFrame` carries (subset of
    ``("mean", "variance", "min", "max", "quantiles", "energy")``);
    ``quantiles`` gives the levels when ``"quantiles"`` is selected.
    ``return_members`` additionally streams every member's state per
    frame — the one switch that makes wire cost grow with M.
    ``stability`` enables blow-up detection (``None`` tracks energy
    and divergence but never trips). ``member_range`` restricts
    execution to members ``[start, stop)`` of the full ensemble — the
    chunk form the cluster router fans out; summaries may then be
    empty (the router computes them from the merged members).

    Validation is front-door and typed: M=0 members, zero steps, or a
    negative noise scale raise ``ValueError`` here (and therefore
    ``bad_request`` at a server parsing the wire form) — degenerate
    ensembles never reach a queue.
    """

    _: KW_ONLY
    n_members: int
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    summaries: tuple[str, ...] = DEFAULT_SUMMARIES
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    return_members: bool = False
    stability: StabilityConfig | None = None
    member_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")
        if not isinstance(self.perturbation, PerturbationSpec):
            raise ValueError(
                f"perturbation must be a PerturbationSpec, "
                f"got {type(self.perturbation).__name__}"
            )
        if self.perturbation.sweep and (
            len(self.perturbation.sweep) != self.n_members
        ):
            raise ValueError(
                f"sweep has {len(self.perturbation.sweep)} factors for "
                f"{self.n_members} members"
            )
        self.summaries = tuple(self.summaries)
        unknown = [s for s in self.summaries if s not in ALLOWED_SUMMARIES]
        if unknown:
            raise ValueError(
                f"unknown summaries {unknown}; allowed: {ALLOWED_SUMMARIES}"
            )
        if not self.summaries and not self.return_members:
            raise ValueError(
                "select at least one summary or set return_members=True"
            )
        self.quantiles = tuple(float(q) for q in self.quantiles)
        if any(not 0.0 <= q <= 1.0 for q in self.quantiles):
            raise ValueError("quantile levels must lie in [0, 1]")
        if "quantiles" in self.summaries and not self.quantiles:
            raise ValueError("'quantiles' summary selected with no levels")
        if self.member_range is not None:
            start, stop = (int(v) for v in self.member_range)
            if not 0 <= start < stop <= self.n_members:
                raise ValueError(
                    f"member_range {self.member_range} invalid for "
                    f"{self.n_members} members"
                )
            self.member_range = (start, stop)

    @property
    def members(self) -> range:
        """The member indices this request executes (chunk-aware)."""
        if self.member_range is None:
            return range(self.n_members)
        return range(self.member_range[0], self.member_range[1])

    def chunk(self, start: int, stop: int) -> "EnsembleRequest":
        """The sub-request for members ``[start, stop)`` (router fan-out).

        A chunk streams raw members (``return_members=True``, no
        summaries, no blow-up detection) — the router owns reduction
        and stability for the whole ensemble. Fresh ``request_id`` and
        ``submitted_at``, same ``trace_id`` so the fan-out correlates
        in one trace.
        """
        return dataclasses.replace(
            self, summaries=(), return_members=True, stability=None,
            member_range=(start, stop), request_id=next(_request_ids),
            submitted_at=time.perf_counter(),
        )

    def member_request(self, member: int) -> RolloutRequest:
        """Member ``member`` as a plain rollout of its perturbed state.

        Deterministic (see :mod:`repro.ensemble.perturb`): anyone —
        a shard, a test, a curious client — builds the identical
        request for member ``m``, which is why per-member trajectories
        are asserted bitwise-identical to direct rollouts.
        """
        from repro.ensemble.perturb import perturb_member

        return RolloutRequest(
            model=self.model, graph=self.graph,
            x0=perturb_member(self.x0, self.perturbation, member),
            n_steps=self.n_steps, halo_mode=self.halo_mode,
            residual=self.residual, precision=self.precision,
            deadline_s=self.deadline_s, trace_id=self.trace_id,
        )

    def member_requests(self) -> "list[RolloutRequest]":
        """One rollout request per member of this (chunk of the) ensemble."""
        return [self.member_request(m) for m in self.members]


@dataclass(frozen=True)
class SummaryFrame:
    """One reduced step of the ensemble (the streamed unit).

    ``summaries`` maps each selected name to its float64 array —
    ``(n, F)`` for mean/variance/min/max, ``(Q, n, F)`` for quantiles,
    ``(3,)`` for energy; ``energy`` is the per-member kinetic energy
    compacted to ``[min, mean, max]`` and ``divergence`` the RMS
    member spread (both always present — they feed the stability
    record). None of these grow with M; ``members`` does (the member
    states in ascending member order), and is populated only when the
    request set ``return_members``.
    """

    step: int
    n_members: int
    summaries: dict
    energy: np.ndarray
    divergence: float
    members: tuple = ()


@dataclass
class EnsembleResult:
    """The complete outcome of one :class:`EnsembleRequest`.

    ``frames`` holds the delivered :class:`SummaryFrame`s — all
    ``n_steps + 1`` of them, or fewer when a blow-up early-stopped the
    stream; ``stability`` is the energy/divergence record with the
    typed :class:`~repro.ensemble.stability.BlowUp` (if any).
    """

    request_id: int
    n_members: int
    frames: list
    stability: StabilityReport
    metrics: object | None = None

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def outcome(self) -> str:
        """``"completed"`` or ``"blow_up"``."""
        return "completed" if self.stability.stable else "blow_up"

    @property
    def blow_up(self) -> BlowUp | None:
        return self.stability.blow_up

    def summary(self, name: str) -> "list[np.ndarray]":
        """The per-step series of one selected summary."""
        return [f.summaries[name] for f in self.frames]

    def member_trajectory(self, member: int) -> "list[np.ndarray]":
        """Member ``member``'s full trajectory (needs ``return_members``)."""
        if not all(f.members for f in self.frames):
            raise ValueError(
                "member states were not returned; set return_members=True"
            )
        return [f.members[member] for f in self.frames]


class EnsembleFuture(StreamFuture):
    """In-flight ensemble: stream :class:`SummaryFrame`, or block for
    the :class:`EnsembleResult`.

    The stream life-cycle is :class:`~repro.runtime.api.StreamFuture`'s
    (one shared iterator, ``result()`` drains it, a failed stream stays
    failed). ``_frames`` implementations append every yielded frame to
    ``self._collected`` and set ``self.stability`` before finishing.
    """

    def __init__(self, request: EnsembleRequest):
        super().__init__(request)
        #: StabilityReport once the stream finished
        self.stability: StabilityReport | None = None

    def _result(self) -> EnsembleResult:
        return EnsembleResult(
            request_id=self.request.request_id,
            n_members=self.request.n_members,
            frames=list(self._collected),
            stability=self.stability or StabilityReport(),
            metrics=self.metrics,
        )
