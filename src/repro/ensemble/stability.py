"""Long-horizon stability diagnostics: energy tracking and blow-up
detection.

Mesh-based GNN surrogates of turbulent flow are judged on whether a
long autoregressive rollout *stays on the attractor* — the failure
mode is a slow energy injection that ends in non-physical blow-up.
This module watches every ensemble step as it is reduced:

* per-member **kinetic energy** ``0.5 * sum(u^2)`` (compacted to
  min/mean/max so the record stays O(steps), independent of M);
* **ensemble divergence** — the RMS member distance from the ensemble
  mean, the uncertainty-growth signal;
* configurable **blow-up detection**: a member whose state goes
  non-finite, whose energy exceeds ``max_energy_ratio`` times its own
  initial energy, or whose amplitude exceeds ``max_value`` trips a
  typed :class:`BlowUp`. With ``early_stop`` the summary stream ends
  at the tripping step instead of streaming garbage.

Thread safety: one tracker belongs to one reducing consumer.
Determinism: detection depends only on the member values — never on
timing, chunking, or where the reduction runs (the router of a cluster
sees the same bits a local engine would).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: energy floor below which growth ratios are not meaningful (an
#: all-zero initial state would otherwise divide by zero)
_ENERGY_FLOOR = 1e-300


@dataclass(frozen=True)
class StabilityConfig:
    """Blow-up detection thresholds (immutable; validated).

    ``max_energy_ratio`` trips when a member's kinetic energy exceeds
    that multiple of its *own* step-0 energy (``None`` disables).
    ``max_value`` trips on amplitude ``|x| > max_value`` (``None``
    disables). Non-finite states always trip. ``early_stop`` ends the
    summary stream at the tripping step; ``False`` keeps streaming
    (the :class:`BlowUp` is still reported in the result).
    """

    max_energy_ratio: float | None = 1e3
    max_value: float | None = None
    early_stop: bool = True

    def __post_init__(self) -> None:
        if self.max_energy_ratio is not None and self.max_energy_ratio <= 1.0:
            raise ValueError("max_energy_ratio must be > 1 (or None)")
        if self.max_value is not None and self.max_value <= 0:
            raise ValueError("max_value must be > 0 (or None)")


@dataclass(frozen=True)
class BlowUp:
    """A typed blow-up outcome: which member tripped, where, and why.

    ``reason`` is one of ``"non_finite"`` / ``"energy_growth"`` /
    ``"value_bound"``; ``energy_ratio`` is the member's energy relative
    to its own initial energy at the tripping step (``inf`` when the
    state went non-finite).
    """

    step: int
    member: int
    reason: str
    energy_ratio: float


@dataclass
class StabilityReport:
    """What the tracker observed over the delivered steps.

    ``energy`` is ``(n_frames, 3)`` — per-step ``[min, mean, max]``
    member kinetic energy; ``divergence`` is ``(n_frames,)`` — per-step
    RMS member spread. Both are O(steps), independent of ensemble size,
    so the report crosses the wire bounded (as the ``stability`` field
    of an ensemble's ``done`` message, arrays as nested lists).
    ``early_stopped`` records that the stream was truncated at
    ``blow_up.step``.
    """

    energy: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.float64)
    )
    divergence: np.ndarray = field(
        default_factory=lambda: np.empty((0,), dtype=np.float64)
    )
    blow_up: BlowUp | None = None
    early_stopped: bool = False

    def __post_init__(self) -> None:
        # the JSON form of an empty record is ``[]``: restore (0, 3)
        self.energy = np.asarray(self.energy, dtype=np.float64).reshape(-1, 3)

    @property
    def n_frames(self) -> int:
        """Frames observed (frame 0 included)."""
        return len(self.divergence)

    @property
    def stable(self) -> bool:
        """Whether no member blew up over the observed horizon."""
        return self.blow_up is None


class StabilityTracker:
    """Per-step observer the reducing driver feeds (see module doc).

    ``config=None`` keeps the energy/divergence record but disables
    blow-up detection — the mode chunk sub-requests run in, since
    detection and early-stop belong to the router that sees the whole
    ensemble.
    """

    def __init__(self, config: StabilityConfig | None, n_members: int):
        self.config = config
        self.n_members = n_members
        self._energy: list = []
        self._divergence: list = []
        self._initial: np.ndarray | None = None  # per-member step-0 energy
        self._blow_up: BlowUp | None = None
        self._early_stopped = False

    def observe(
        self,
        step: int,
        values: np.ndarray,
        energies: np.ndarray,
        energy_summary: np.ndarray,
        divergence: float,
    ) -> BlowUp | None:
        """Record one reduced step; returns a new :class:`BlowUp` if tripped.

        ``values`` is the ``(M, n, F)`` member stack, ``energies`` the
        per-member kinetic energies (already computed by the reducer —
        not recomputed here), ``energy_summary`` their ``[min, mean,
        max]`` compaction, ``divergence`` the ensemble spread.
        """
        self._energy.append(np.asarray(energy_summary, dtype=np.float64))
        self._divergence.append(float(divergence))
        if step == 0 or self._initial is None:
            self._initial = np.maximum(
                np.asarray(energies, dtype=np.float64), _ENERGY_FLOOR
            )
        if self.config is None or self._blow_up is not None:
            return None
        blow = self._detect(step, values, energies)
        if blow is not None:
            self._blow_up = blow
        return blow

    def _detect(
        self, step: int, values: np.ndarray, energies: np.ndarray
    ) -> BlowUp | None:
        cfg = self.config
        ratios = np.asarray(energies, dtype=np.float64) / self._initial
        for m in range(len(values)):
            if not np.isfinite(values[m]).all():
                return BlowUp(step, m, "non_finite", float("inf"))
            if (
                cfg.max_energy_ratio is not None
                and ratios[m] > cfg.max_energy_ratio
            ):
                return BlowUp(step, m, "energy_growth", float(ratios[m]))
            if (
                cfg.max_value is not None
                and float(np.max(np.abs(values[m]))) > cfg.max_value
            ):
                return BlowUp(step, m, "value_bound", float(ratios[m]))
        return None

    def note_early_stop(self) -> None:
        """Record that the stream was truncated at the blow-up step."""
        self._early_stopped = True

    @property
    def blow_up(self) -> BlowUp | None:
        return self._blow_up

    def report(self) -> StabilityReport:
        """The final (immutable-by-convention) stability record."""
        return StabilityReport(
            energy=np.asarray(self._energy, dtype=np.float64),
            divergence=np.asarray(self._divergence, dtype=np.float64),
            blow_up=self._blow_up,
            early_stopped=self._early_stopped,
        )
