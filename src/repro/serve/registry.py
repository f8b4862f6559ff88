"""Model registry: named, reloadable surrogate checkpoints.

The serving layer treats trained models as named assets. A model can be
registered in-memory (an already-constructed :class:`MeshGNN`) or as a
checkpoint path loaded lazily via :mod:`repro.gnn.checkpoint` on first
use and kept resident until evicted. Registration validates config
compatibility so a request can't silently hit a model whose feature
widths disagree with what the caller expects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

from repro.gnn.architecture import MeshGNN
from repro.gnn.checkpoint import load_checkpoint
from repro.gnn.config import GNNConfig
from repro.obs.registry import MetricsRegistry
from repro.serve.metrics import RegistryStats, ServeStats, declare


class ModelNotFound(KeyError):
    """No model registered under the requested name.

    Raised deterministically from name lookup alone; safe to raise and
    catch from any thread.
    """


class IncompatibleModel(ValueError):
    """A model's config violates what the request or caller requires.

    Raised deterministically from config/shape comparison alone; safe
    to raise and catch from any thread.
    """


@dataclass
class _Entry:
    name: str
    path: Path | None = None
    model: MeshGNN | None = None
    expect_config: GNNConfig | None = None

    @property
    def resident(self) -> bool:
        return self.model is not None


class ModelRegistry:
    """Thread-safe name → :class:`MeshGNN` registry with lazy loading.

    Thread safety: every method may be called from any thread; one lock
    guards the entry table, and checkpoint loads happen under it so
    concurrent ``get`` calls observe a consistent resident set. Load
    and eviction counts are series in ``metrics`` (the service's
    registry; a model registry built on its own gets a private one).
    Determinism: ``get`` returns the *same* model object every call
    until eviction, and checkpoint loading is exact (``.npz`` weights),
    so which thread triggers the lazy load never affects served bits.

    >>> from repro.gnn import GNNConfig, MeshGNN
    >>> reg = ModelRegistry()
    >>> reg.register_model("tgv", MeshGNN(GNNConfig(hidden=4,
    ...     n_message_passing=1, n_mlp_hidden=0)))
    >>> reg.get("tgv").config.hidden
    4
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._metrics, self._m = declare(metrics)

    # -- registration --------------------------------------------------------

    def register_model(self, name: str, model: MeshGNN) -> None:
        """Register an in-memory model (resident immediately).

        Thread-safe; raises :class:`ValueError` if the name is taken.
        The registry shares (not copies) ``model`` — do not mutate its
        parameters afterwards or served results will change.
        """
        with self._lock:
            self._check_name_free(name)
            self._entries[name] = _Entry(name=name, model=model)
            self._m["registry.per_model_loads"].inc(model=name)

    def register_checkpoint(
        self,
        name: str,
        path: str | Path,
        expect_config: GNNConfig | None = None,
    ) -> None:
        """Register a checkpoint file, loaded lazily on first :meth:`get`.

        ``expect_config`` pins the config the checkpoint must carry;
        mismatch raises :class:`IncompatibleModel` at first load.
        """
        path = Path(path)
        if not path.is_file():  # a directory would fail at load, untyped
            raise FileNotFoundError(f"checkpoint file {path} does not exist")
        with self._lock:
            self._check_name_free(name)
            self._entries[name] = _Entry(
                name=name, path=path, expect_config=expect_config
            )

    def _check_name_free(self, name: str) -> None:
        if name in self._entries:
            raise ValueError(f"model {name!r} already registered; evict first")

    # -- lookup --------------------------------------------------------------

    def get(self, name: str) -> MeshGNN:
        """Return the named model, loading its checkpoint if needed.

        Thread-safe (loads are serialized under the lock, so a
        checkpoint is read at most once per residency). Deterministic:
        repeated calls return the identical object and bits.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ModelNotFound(
                    f"no model {name!r}; registered: {sorted(self._entries)}"
                )
            if entry.model is None:
                assert entry.path is not None
                model = load_checkpoint(entry.path)
                expect = entry.expect_config
                if expect is not None and model.config != expect:
                    raise IncompatibleModel(
                        f"checkpoint {entry.path} carries config {model.config}, "
                        f"registration expected {expect}"
                    )
                entry.model = model
                self._m["registry.per_model_loads"].inc(model=name)
            return entry.model

    def config(self, name: str) -> GNNConfig:
        """The named model's config (thread-safe; may trigger the load)."""
        return self.get(name).config

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is registered (thread-safe point read)."""
        with self._lock:
            return name in self._entries

    def names(self) -> list[str]:
        """Registered names, sorted (thread-safe snapshot)."""
        with self._lock:
            return sorted(self._entries)

    # -- eviction ------------------------------------------------------------

    def evict(self, name: str) -> None:
        """Drop a resident model's parameters (checkpoint entries reload
        on next use; in-memory entries are removed entirely).

        Thread-safe; a concurrent ``get`` either sees the old resident
        model or triggers a fresh (bit-identical) reload, never a torn
        state.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ModelNotFound(f"no model {name!r}")
            if entry.path is None:
                del self._entries[name]
            else:
                entry.model = None
            self._m["registry.evictions"].inc()

    # -- validation ----------------------------------------------------------

    @staticmethod
    def validate_rollout(model: MeshGNN) -> None:
        """Autoregressive rollout feeds outputs back as inputs.

        Pure check (no state, any thread): raises
        :class:`IncompatibleModel` unless ``node_in == node_out``.
        """
        cfg = model.config
        if cfg.node_in != cfg.node_out:
            raise IncompatibleModel(
                f"rollout requires node_in == node_out, got "
                f"{cfg.node_in} != {cfg.node_out}"
            )

    # -- stats ---------------------------------------------------------------

    def _publish_levels(self) -> None:
        """Write the point-in-time gauges (registered, resident).

        Levels are written by their owner when the registry is
        collected, under the owner's lock.
        """
        with self._lock, self._metrics.atomic():
            self._m["registry.registered"].set(len(self._entries))
            self._m["registry.resident"].set(
                sum(1 for e in self._entries.values() if e.resident)
            )

    def stats(self) -> RegistryStats:
        """The model-registry view of the registry recorded into."""
        self._publish_levels()
        return ServeStats.from_registry(self._metrics).registry
