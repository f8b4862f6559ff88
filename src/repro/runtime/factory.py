"""``connect()``: one URL, one engine — the runtime front door.

.. code-block:: python

    from repro.runtime import RolloutRequest, connect

    with connect("local://") as engine:            # inline on this thread
        ...
    with connect("pool://", config=cfg) as engine:  # batched in-process
        ...
    with connect("tcp://127.0.0.1:7431") as engine:  # networked, pooled
        ...
    with connect("cluster://h1:7431,h2:7431") as engine:  # sharded, failover
        ...
    result = engine.rollout(RolloutRequest("tgv", "mesh-r4", x0, n_steps=10))

The scheme picks the execution substrate; everything after ``connect``
is engine-independent — same typed requests, same typed errors, same
bits (the conformance suite asserts trajectories are bitwise identical
across all four schemes).
"""

from __future__ import annotations

from repro.runtime.api import Engine


def connect(
    url: str,
    config=None,
    service=None,
    pool_size: int = 4,
    request_timeout_s: float = 120.0,
) -> Engine:
    """Build an engine from an execution URL.

    Parameters
    ----------
    url:
        ``local://`` (inline :class:`~repro.runtime.local.LocalEngine`),
        ``pool://`` (batched
        :class:`~repro.runtime.pooled.PooledEngine`),
        ``tcp://HOST:PORT`` (networked
        :class:`~repro.runtime.remote.RemoteEngine`; dials and pings the
        server before returning), or
        ``cluster://H1:P1,H2:P2,...`` (sharded
        :class:`~repro.cluster.ClusterEngine` over one remote engine
        per endpoint; every shard is dialed and pinged before
        returning).
    config:
        ``pool://`` only: the :class:`~repro.serve.service.ServeConfig`
        of the private service the engine creates.
    service:
        ``pool://`` only: mount the engine on an existing
        :class:`~repro.serve.service.InferenceService` instead of
        creating one (mutually exclusive with ``config``).
    pool_size:
        ``tcp://`` / ``cluster://``: idle connections kept warm (per
        shard for clusters).
    request_timeout_s:
        Per-reply/frame wait bound, > 0 (``pool://`` applies it to the
        private service it creates without ``config``).

    Thread safety: pure construction; the returned engine documents its
    own sharing rules. Raises :class:`ValueError` on unknown schemes or
    options that do not apply to the scheme.
    """
    scheme, sep, rest = url.partition("://")
    if not sep:
        raise ValueError(
            f"expected an engine URL like 'local://', 'pool://' or "
            f"'tcp://HOST:PORT', got {url!r}"
        )
    if scheme in ("local", "pool") and rest.strip("/"):
        raise ValueError(
            f"{scheme}:// takes no host, got {url!r}"
        )
    if scheme != "pool" and (config is not None or service is not None):
        raise ValueError("config/service only apply to pool:// engines")

    if scheme == "local":
        from repro.runtime.local import LocalEngine

        return LocalEngine(request_timeout_s=request_timeout_s)
    if scheme == "pool":
        from repro.runtime.pooled import PooledEngine

        if config is None and service is None:
            from repro.serve.service import ServeConfig

            config = ServeConfig(request_timeout_s=request_timeout_s)
        return PooledEngine(config=config, service=service)
    if scheme == "tcp":
        from repro.runtime.remote import RemoteEngine

        return RemoteEngine.connect(
            rest,
            pool_size=pool_size,
            request_timeout_s=request_timeout_s,
        )
    if scheme == "cluster":
        from repro.cluster.engine import ClusterEngine

        if not rest.strip(","):
            raise ValueError(
                f"cluster:// needs at least one HOST:PORT endpoint, "
                f"got {url!r}"
            )
        return ClusterEngine.connect(
            rest,
            pool_size=pool_size,
            request_timeout_s=request_timeout_s,
        )
    raise ValueError(
        f"unknown engine scheme {scheme!r}; known: local, pool, tcp, cluster"
    )
