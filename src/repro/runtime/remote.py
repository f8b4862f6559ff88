"""RemoteEngine: the socket transport behind the Engine API, with
persistent pooled connections.

Rather than dialing a fresh TCP connection per call, ``RemoteEngine``
keeps a small pool of live connections to the
:class:`~repro.serve.transport.ServeServer` (the server's
one-thread-per-connection handler loops over messages, so a connection
serves any number of requests). Unary calls and streaming rollouts
check a connection out, use it, and return it; a connection that died
while idle in the pool (server restart, idle timeout on a middlebox) is
**reconnected once** — the request is re-sent on a fresh dial before
any failure is reported, so a bounced server costs one retry, not an
error. ``pool_stats()`` exposes dials vs. reuses;
``benchmarks/test_serve_overload.py`` asserts that sustained serving
performs no per-request connects.

Every dialled socket carries ``TCP_NODELAY`` (``_ConnectionPool._dial``,
the one place a socket is opened — ``acquire`` and ``redial`` share
it). A request is one message and ``write_message`` hands the stream
one buffer, so the client does not write small-after-small today; the
option makes "no write waits ~40 ms for the peer's delayed ACK" a
property of the socket rather than of how a message happens to be
written. The server sets it on accept, where every reply needed it (see
:mod:`repro.serve.transport`: write-write-read on Nagle + delayed ACK).

The engine declares what the wire serves (:data:`_CAPABILITIES`;
client and server ship in one package, so there is nothing to ask the
peer): training jobs and in-memory models do not cross the socket, so
:class:`~repro.runtime.api.TrainRequest` submission and
``register_model`` raise the typed
:class:`~repro.runtime.api.CapabilityError` client-side instead of
dying in a transport layer. An in-memory *graph* is uploaded as
``.npy`` frames.

Observability: the request's client-minted ``trace_id`` crosses the
wire in the rollout header, so the server's spans for it correlate
with the ``network`` span this engine records around each stream.
:meth:`get_trace` stitches both sides together (local client spans
plus the peer's ``get_trace`` op, degrading to the local spans when
the peer cannot be reached), and :meth:`metrics_registry` fetches
the server's mergeable metrics snapshot — the source of ``stats()``.

**Trust model** unchanged from the transport: unauthenticated and
unencrypted — localhost and trusted networks only (see
:mod:`repro.serve.transport`).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.ensemble.api import EnsembleFuture, SummaryFrame
from repro.ensemble.stability import StabilityReport
from repro.gnn.architecture import MeshGNN
from repro.gnn.config import GNNConfig
from repro.graph.distributed import LocalGraph
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, TraceBuffer, wall_from_perf
from repro.runtime.api import (
    CapabilityError,
    Engine,
    EngineCapabilities,
    RolloutFuture,
    RolloutRequest,
    StepFrame,
)
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, read_message, write_message
from repro.serve.transport import TransportError, parse_endpoint

_CAPABILITIES = EngineCapabilities(
    transport="tcp", training=False, in_memory_assets=False
)
#: bound on one TCP dial
_CONNECT_TIMEOUT_S = 10.0


def _error_fields(received: tuple | None) -> tuple[str, str] | None:
    """``(code, text)`` if ``received`` is an ``error`` reply, else None.

    An error reply without both as strings is the peer's protocol
    violation — a :class:`ProtocolError`, handled like any other
    unparseable reply (connection discarded, typed
    :class:`TransportError`), not the ``KeyError`` that would read as
    "graph not found".
    """
    if received is None or received[0].get("type") != "error":
        return None
    try:
        return (
            protocol.take(received[0], "code", str),
            protocol.take(received[0], "message", str),
        )
    except ValueError:
        raise ProtocolError(f"malformed error reply: {received[0]!r}") from None


def _send(conn: _Conn, op: str, request) -> None:
    """Write one streamed op's request message on ``conn``."""
    write_message(conn.stream, *protocol.stream_message(op, request))


def _field(reply: dict, key: str, tp, *default):
    """The one way a reply field is read: typed by the wire codec
    (:func:`repro.serve.protocol.take`), so a type-confused *server* is
    a typed :class:`TransportError` — never the ``KeyError`` /
    ``TypeError`` a bare subscript would leak."""
    try:
        return protocol.take(reply, key, tp, *default)
    except ValueError as exc:
        raise TransportError(
            f"malformed {reply.get('type')!r} reply: {exc}"
        ) from None


@dataclass(frozen=True)
class PoolStats:
    """Connection-pool accounting snapshot (plain data, safe to share).

    ``dials`` counts TCP connects over the engine's lifetime,
    ``reuses`` counts checkouts served by an already-open connection,
    ``idle`` is how many connections sit warm in the pool right now.
    Sustained serving should show ``dials`` frozen while ``reuses``
    grows — that is the no-per-request-connect claim.
    """

    dials: int
    reuses: int
    idle: int


class _Conn:
    """One pooled connection: socket + buffered stream + reuse flag."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.stream = sock.makefile("rwb")
        #: False until the connection survived one checkout/return cycle;
        #: a failure on a *fresh* dial is never retried (the server is
        #: actually unreachable), a failure on a reused one is (the idle
        #: socket may simply have been closed under us).
        self.reused = False

    def close(self) -> None:
        try:
            self.stream.close()
        except OSError:
            pass
        finally:
            try:
                self.sock.close()
            except OSError:
                pass


class _ConnectionPool:
    """Keep up to ``size`` idle connections to one endpoint alive.

    Thread safety: ``acquire``/``release``/``discard``/``close`` may be
    called from any thread; one lock guards the idle list and counters.
    A checkout beyond ``size`` concurrent users simply dials an extra
    connection (callers are never blocked waiting for a socket); the
    pool bound applies to *idle* connections kept warm.
    """

    def __init__(
        self,
        host: str,
        port: int,
        size: int,
        request_timeout_s: float,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.host = host
        self.port = port
        self.size = size
        self.request_timeout_s = request_timeout_s
        self._idle: list[_Conn] = []
        self._lock = threading.Lock()
        self._dials = 0
        self._reuses = 0
        self._closed = False

    def acquire(self) -> _Conn:
        """Check a connection out (reuse an idle one, else dial)."""
        with self._lock:
            if self._closed:
                raise TransportError("engine is closed")
            if self._idle:
                conn = self._idle.pop()
                conn.reused = True
                self._reuses += 1
                # a stream may have narrowed the socket timeout for its
                # own per-frame bound; hand out the default, always
                conn.sock.settimeout(self.request_timeout_s)
                return conn
            self._dials += 1
        return self._dial()

    def _dial(self) -> _Conn:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=_CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise TransportError(
                f"cannot reach serve endpoint {self.host}:{self.port}: {exc}"
            ) from None
        # no write waits on the peer's delayed ACK (module docstring);
        # here, so acquire() and redial() both get it
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.request_timeout_s)
        return _Conn(sock)

    def redial(self) -> _Conn:
        """A fresh connection for the one-shot reconnect path (counted)."""
        with self._lock:
            if self._closed:
                raise TransportError("engine is closed")
            self._dials += 1
        return self._dial()

    def release(self, conn: _Conn) -> None:
        """Return a healthy connection (closed if the pool is full)."""
        with self._lock:
            if not self._closed and len(self._idle) < self.size:
                self._idle.append(conn)
                return
        conn.close()

    def discard(self, conn: _Conn) -> None:
        """Drop a connection in an unknown state (never re-pooled)."""
        conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(
                dials=self._dials, reuses=self._reuses, idle=len(self._idle)
            )


class _WireStream:
    """A streamed op over a pooled connection: the one class that reads
    stream frames off a socket.

    Every streamed request kind is "send one message, read typed
    frames, end on ``done``/``error``"; a kind supplies its wire op
    (``_kind``), the wire type of its data frames (``_frame_type``),
    their decoder (``_decode``) and what its ``done`` header carries
    (``_finish``), and mixes this class into its public future type.

    The request message is written at submission; frames are read off
    the socket lazily as the consumer iterates, so a slow consumer
    backpressures only its own stream. The connection returns to the
    pool after a clean ``done``/``error``; in every other ending —
    the stream broke, ``done`` announced a different frame count than
    was delivered, or the consumer closed or dropped the iterator
    before the end — it is discarded, because unread frames may still
    be in flight on it. If the connection dies before the *first* reply
    on a reused socket, the request is re-sent once on a fresh dial
    (safe: rollouts and ensembles are pure reads whose every input is
    in the request — re-execution reproduces the same bits).
    Single-consumer; ``frames()``/``result()`` share one iterator (see
    :class:`~repro.runtime.api.StreamFuture`).
    """

    def __init__(self, engine: "RemoteEngine", request, conn: _Conn):
        super().__init__(request)
        self._pool = engine._pool
        self._trace = engine.trace
        self._conn = conn
        self._finished = False

    def _frames(self, timeout: float | None) -> Iterator:
        started = time.perf_counter()
        frames = 0
        status = "failed"
        try:
            for frame in self._stream(timeout):
                frames += 1
                yield frame
            status = "ok"
        finally:
            # one client-side span per stream: dial-to-done wall time,
            # failed when the stream raised (or was abandoned mid-way)
            self._trace.record_span(
                self.request.trace_id,
                "network",
                "client",
                wall_from_perf(started),
                time.perf_counter() - started,
                status=status,
                endpoint=f"{self._pool.host}:{self._pool.port}",
                frames=frames,
            )

    def _stream(self, timeout: float | None) -> Iterator:
        self._conn.sock.settimeout(
            self._pool.request_timeout_s if timeout is None else timeout
        )
        received = 0
        may_retry = self._conn.reused
        at_boundary = False  # healthy and between messages: re-poolable
        try:
            while True:
                try:
                    message = read_message(self._conn.stream)
                    if message is None:
                        raise ProtocolError("server closed the stream before done")
                    error = _error_fields(message)
                except (ProtocolError, OSError) as exc:
                    # OSError covers socket timeouts and resets: to the
                    # consumer (and the cluster's failover) a hung shard
                    # and a dead shard are the same typed failure
                    if received == 0 and may_retry:
                        self._reconnect()
                        may_retry = False
                        continue
                    raise TransportError(
                        f"stream broke mid-{self._kind}: {exc}"
                    ) from None
                header, arrays = message
                kind = header.get("type")
                if kind == self._frame_type:
                    try:
                        frame = self._decode(received, header, arrays)
                    except ValueError as exc:
                        raise TransportError(
                            f"malformed {kind!r} message: {exc}"
                        ) from None
                    yield frame
                    received += 1
                elif kind == "done":
                    # a short stream must not read as a finished one:
                    # the count the server announces is checked (and the
                    # done fields typed) before the socket is re-poolable
                    announced = _field(header, "n_frames", int)
                    if announced != received:
                        raise TransportError(
                            f"{self._kind} stream ended after {received} "
                            f"frames, server announced {announced}"
                        )
                    self._finish(header)
                    at_boundary = True
                    return
                elif kind == "error":
                    # typed server rejection: the connection itself is
                    # healthy and at a message boundary — keep it
                    at_boundary = True
                    protocol.raise_for_code(*error)
                else:
                    raise TransportError(
                        f"unexpected message {kind!r} in {self._kind} stream"
                    )
        finally:
            self._finished = True
            if at_boundary:
                self._pool.release(self._conn)
            else:
                self._pool.discard(self._conn)

    def _reconnect(self) -> None:
        """Reconnect-on-EOF once: re-send the request on a fresh dial."""
        timeout = self._conn.sock.gettimeout()
        self._pool.discard(self._conn)
        self._conn = self._pool.redial()
        self._conn.sock.settimeout(timeout)
        try:
            _send(self._conn, self._kind, self.request)
        except (OSError, ProtocolError) as exc:
            raise TransportError(
                f"reconnect failed re-sending request: {exc}"
            ) from None

    @property
    def done(self) -> bool:
        return self._finished


class _RemoteRolloutFuture(_WireStream, RolloutFuture):
    """``rollout`` op: one ``frame`` message per step, metrics on ``done``."""

    _kind = "rollout"
    _frame_type = "frame"

    def _decode(self, step: int, header: dict, arrays: list) -> StepFrame:
        if not arrays:
            raise ValueError("frame message carried no array")
        self._collected.append(arrays[0])
        return StepFrame(step, arrays[0])

    def _finish(self, header: dict) -> None:
        self.metrics = _field(header, "metrics", dict | None, None)


class _RemoteEnsembleFuture(_WireStream, EnsembleFuture):
    """``ensemble`` op: the reduction runs server-side, so what crosses
    the wire per step is one bounded ``summary`` message (independent
    of M unless raw members were requested); ``done`` carries the
    stability report."""

    _kind = "ensemble"
    _frame_type = "summary"

    def _decode(self, index: int, header: dict, arrays: list) -> SummaryFrame:
        frame = protocol.parse_summary_frame(header, arrays)
        self._collected.append(frame)
        return frame

    def _finish(self, header: dict) -> None:
        self.stability = _field(
            header, "stability", StabilityReport | None, None
        )
        self.metrics = _field(header, "metrics", dict | None, None)


class RemoteEngine(Engine):
    """Engine speaking the serve wire protocol over pooled connections.

    Thread safety: fully shareable — each operation checks its own
    connection out of the pool, so concurrent rollouts stream over
    distinct sockets while unary calls interleave on whatever is idle.
    Determinism: the transport adds no arithmetic (frames cross as
    ``.npy`` bytes), so remote trajectories are bitwise identical to
    local and pooled ones — asserted by the conformance suite.
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        request_timeout_s: float = 120.0,
    ):
        if not request_timeout_s > 0:
            raise ValueError("request_timeout_s must be > 0")
        self.host = host
        self.port = port
        self._pool = _ConnectionPool(host, port, pool_size, request_timeout_s)
        #: client-side span ring: one ``network`` span per streamed
        #: rollout, merged with the server's spans by :meth:`get_trace`
        self.trace = TraceBuffer()

    @classmethod
    def connect(
        cls,
        endpoint: str,
        pool_size: int = 4,
        request_timeout_s: float = 120.0,
    ) -> "RemoteEngine":
        """Build an engine from ``HOST:PORT`` and verify liveness."""
        host, port = parse_endpoint(endpoint)
        engine = cls(
            host, port, pool_size=pool_size, request_timeout_s=request_timeout_s
        )
        engine.ping()
        return engine

    # -- lifecycle -----------------------------------------------------------

    def capabilities(self) -> EngineCapabilities:
        return _CAPABILITIES

    def close(self) -> None:
        """Close every pooled connection (idempotent); in-flight streams
        own their sockets and are unaffected."""
        self._pool.close()

    def pool_stats(self) -> PoolStats:
        """Connection reuse accounting (see :class:`PoolStats`)."""
        return self._pool.stats()

    # -- plumbing ------------------------------------------------------------

    def _call(
        self,
        header: dict,
        arrays: Sequence[np.ndarray] = (),
        idempotent: bool = True,
    ) -> tuple[dict, list[np.ndarray]]:
        """One unary round trip on a pooled connection.

        A reused connection that fails before delivering a reply is
        replaced by one fresh dial and the call re-sent — except when
        ``idempotent`` is false AND the request had already been
        written: the server may have executed it, and re-sending a
        non-idempotent op (e.g. ``register_checkpoint``, which rejects
        duplicate names) would turn a lost reply into a spurious
        error. A failed *write* never reached the service, so it is
        always safe to retry; a fresh connection failing means the
        server is genuinely unreachable.
        """
        conn = self._pool.acquire()
        retried = False
        while True:
            wrote = False
            try:
                write_message(conn.stream, header, arrays)
                wrote = True
                message = read_message(conn.stream)
                error = _error_fields(message)
            except (OSError, ProtocolError) as exc:
                self._pool.discard(conn)
                if conn.reused and not retried and (idempotent or not wrote):
                    conn = self._pool.redial()
                    retried = True
                    continue
                raise TransportError(f"bad reply: {exc}") from None
            if message is None:
                self._pool.discard(conn)
                if conn.reused and not retried and idempotent:
                    conn = self._pool.redial()
                    retried = True
                    continue
                raise TransportError("server closed connection without reply")
            self._pool.release(conn)
            if error is not None:
                protocol.raise_for_code(*error)
            return message

    def ping(self) -> None:
        """Round-trip a no-op message (raises on unreachable/bad peer)."""
        self._call({"op": "ping"})

    # -- assets --------------------------------------------------------------

    def register_model(self, name: str, model: MeshGNN) -> None:
        """Unsupported over the wire — models register by checkpoint path."""
        raise CapabilityError(
            "in-memory models cannot cross the process boundary; "
            "save a checkpoint and use register_checkpoint(name, path)"
        )

    def register_graph(self, key: str, graphs: Sequence[LocalGraph]) -> None:
        """Upload an in-memory partitioned graph as ``.npy`` frames.

        The registration path for servers with a disjoint filesystem
        (cluster shards on other hosts): the rank payloads cross the
        socket bit-exactly and the server pins them like any in-memory
        registration. ``register_graph_dir`` (a server-visible path)
        remains the fast path when client and server share a
        filesystem. Safe to retry on a dead pooled connection:
        re-registering a key replaces the asset idempotently.
        """
        if not graphs:
            raise ValueError("graphs must be non-empty")
        self._call(*protocol.graph_upload_message(key, graphs))

    def register_checkpoint(
        self,
        name: str,
        path: str | Path,
        expect_config: GNNConfig | None = None,
    ) -> None:
        """Register a checkpoint by *server-visible* path.

        Not auto-retried after an ambiguous connection failure — the
        registry rejects duplicate names, so a blind re-send could
        report failure for a registration that succeeded.
        """
        self._call(
            {
                "op": "register_checkpoint",
                "name": name,
                "path": str(path),
                "expect_config": (
                    None if expect_config is None
                    else protocol.to_wire(expect_config)
                ),
            },
            idempotent=False,
        )

    def register_graph_dir(self, key: str, directory: str | Path) -> None:
        """Register a graph directory by *server-visible* path."""
        self._call(
            {"op": "register_graph_dir", "key": key, "path": str(directory)}
        )

    def _ask(self, op: str, key: str, tp, **fields):
        """One unary op whose reply carries one typed field."""
        reply, _ = self._call({"op": op, **fields})
        return _field(reply, key, tp)

    def model_names(self) -> list:
        return self._ask("models", "names", list[str])

    def graph_keys(self) -> list:
        return self._ask("graph_keys", "keys", list[str])

    # -- submission ----------------------------------------------------------

    def _open_stream(self, future_type, request):
        """Write one streamed op's request on a pooled connection → its
        future (a reused socket that died idle gets one fresh dial)."""
        conn = self._pool.acquire()
        while True:
            try:
                _send(conn, future_type._kind, request)
            except (OSError, ProtocolError) as exc:
                self._pool.discard(conn)
                if not conn.reused:
                    raise TransportError(
                        f"cannot submit {future_type._kind}: {exc}"
                    ) from None
                conn = self._pool.redial()  # fresh: a second failure raises
            else:
                return future_type(self, request, conn)

    def _submit_rollout(self, request: RolloutRequest) -> RolloutFuture:
        return self._open_stream(_RemoteRolloutFuture, request)

    def _submit_ensemble(self, request):
        return self._open_stream(_RemoteEnsembleFuture, request)

    # -- stats / observability ------------------------------------------------

    def get_trace(self, trace_id: str) -> list[Span]:
        """Client ``network`` spans merged with the server's spans.

        A peer that cannot be reached (or answers garbage) still leaves
        the local spans to return, so tracing degrades instead of
        failing.
        """
        spans = list(self.trace.trace(trace_id))
        try:
            spans.extend(
                self._ask("get_trace", "spans", list[Span], trace_id=trace_id)
            )
        except TransportError:
            pass
        spans.sort(key=lambda s: (s.start_s, s.name))
        return spans

    def metrics_registry(self) -> MetricsRegistry:
        """The server's metrics registry, rebuilt from its snapshot."""
        snapshot = self._ask("metrics", "snapshot", dict)
        try:
            return MetricsRegistry.from_snapshot(snapshot)
        except ValueError as exc:
            raise TransportError(f"malformed 'metrics' reply: {exc}") from None
