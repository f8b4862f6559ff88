"""``repro.runtime`` — one front end for local, pooled, and networked
execution.

The unified engine API over the whole stack:

* :mod:`repro.runtime.api` — the shared typed dataclasses
  (:class:`RolloutRequest` over the shared :class:`StreamRequest`
  shape, :class:`StepFrame`, :class:`RolloutResult`,
  :class:`TrainRequest`, :class:`TrainResult`), the :class:`Engine`
  interface with its futures, :class:`EngineCapabilities` (the fixed
  record each engine declares), and the typed :class:`CapabilityError`;
* :mod:`repro.runtime.pooled` — :class:`PooledEngine`, the batched
  in-process service plus the training-job path, and the engine body
  it shares with
* :mod:`repro.runtime.local` — :class:`LocalEngine`, the same service
  run inline on the calling thread;
* :mod:`repro.runtime.remote` — :class:`RemoteEngine`, the socket
  transport with persistent pooled connections;
* :mod:`repro.runtime.factory` — :func:`connect`, building any of the
  above from a ``local:// | pool:// | tcp://HOST:PORT`` URL.

The package promise: the same :class:`RolloutRequest` produces
bit-identical trajectories on every engine, and failures cross every
engine as the same typed exceptions — where the code runs is an
operational choice, never a numerical or error-handling one
(``tests/runtime/test_engine_conformance.py`` asserts both).

Implementation note: engine submodules are loaded lazily (PEP 562) —
the serving layer imports :mod:`repro.runtime.api` for the shared
dataclasses, and the engines import the serving layer, so eager
package-level imports would bite their own tail.
"""

from repro.runtime.api import (
    BatchKey,
    CapabilityError,
    Engine,
    EngineCapabilities,
    NoShardAvailable,
    RolloutFuture,
    RolloutRequest,
    RolloutResult,
    ShardError,
    StepFrame,
    StreamFuture,
    StreamRequest,
    TrainFuture,
    TrainRequest,
    TrainResult,
)

__all__ = [
    "BatchKey",
    "CapabilityError",
    "ClusterEngine",
    "Engine",
    "EngineCapabilities",
    "LocalEngine",
    "NoShardAvailable",
    "PooledEngine",
    "PoolStats",
    "RemoteEngine",
    "RolloutFuture",
    "RolloutRequest",
    "RolloutResult",
    "ShardError",
    "StepFrame",
    "StreamFuture",
    "StreamRequest",
    "TrainFuture",
    "TrainRequest",
    "TrainResult",
    "connect",
]

#: name -> (submodule, attribute) for the lazily-loaded engine layer
_LAZY = {
    "ClusterEngine": ("repro.cluster.engine", "ClusterEngine"),
    "LocalEngine": ("repro.runtime.local", "LocalEngine"),
    "PooledEngine": ("repro.runtime.pooled", "PooledEngine"),
    "PoolStats": ("repro.runtime.remote", "PoolStats"),
    "RemoteEngine": ("repro.runtime.remote", "RemoteEngine"),
    "connect": ("repro.runtime.factory", "connect"),
}


def __getattr__(name: str):
    """Resolve the lazy engine exports (see the module docstring)."""
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value  # cache: next access skips this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
