"""Out-of-process serving transport: the socket server side.

This is the piece that turns the in-process batched executor into a
*service*: :class:`ServeServer` listens on a TCP socket and speaks the
:mod:`repro.serve.protocol` framing, so a client in another process (or
on another machine) can submit rollout requests, stream frames as steps
complete, fetch metrics (of which the stats table is a view) and
traces, and register path-backed assets. The client side is
:class:`~repro.runtime.remote.RemoteEngine`
(``repro.runtime.connect("tcp://HOST:PORT")``), and the transport
consistency tests assert that a trajectory fetched through the socket
is bitwise identical to the same request served in-process.

Everything is stdlib (``socketserver`` + ``socket``): one thread per
connection on the server (``ThreadingTCPServer``); a streaming rollout
owns its connection until the final ``done``/``error`` message.

**No reply waits on a kernel timer.** Two socket settings and one
deliberate non-setting, hard-coded (there is nothing to tune):

* ``TCP_NODELAY`` on every accepted connection
  (``_Handler.disable_nagle_algorithm``, applied by
  ``StreamRequestHandler.setup()``). The handler's ``wfile`` is
  unbuffered, so every ``write`` is a ``send``. Under Nagle the first
  small segment goes out at once and the next is held until the first
  is ACKed; the client, which has nothing to send, delays that ACK
  ~40 ms — write-write-read on Nagle + delayed ACK. Every reply used
  to pay it once (a message was four writes, a stream is several
  messages): 44 ms for a ``models`` call that takes 0.05 ms, 44 ms for
  a rollout that takes 5. ``protocol.write_message`` now also hands the
  socket one buffer per message — one ``send``, one segment and, in a
  threaded server, one GIL hand-off instead of four.
  :class:`~repro.runtime.remote.RemoteEngine` sets the same option on
  the sockets it dials.
* ``wfile`` **stays unbuffered** (``wbufsize`` is not set). A buffered
  writer is no faster once Nagle is off (measured, ROADMAP item 1(ii))
  and it breaks the quiet handling of a peer that leaves mid-reply: the
  ``BufferedWriter`` keeps the unsent bytes, ``finish()`` flushes them
  into the dead socket and ``BrokenPipeError`` escapes the handler as a
  ``socketserver`` traceback.
* A listen backlog of 128 (``_ServeTCPServer.request_queue_size``;
  ``socketserver``'s default is 5). A burst of dials longer than the
  backlog — a fresh engine's first concurrent checkouts, a cluster
  fan-out — has its overflow SYNs dropped, and a dropped SYN is
  retransmitted by the dialler's kernel after ~1 s.

``tests/serve/test_transport.py`` (``TestNoKernelTimerOnTheRequestPath``,
``TestBurstDial``, ``TestPeerGoesAway``) holds all three.

Observability: every rollout carries its client-minted ``trace_id`` in
the message header; the server's spans for that request (admission,
queue, tile, execute, and the ``serialize`` span this module records
around frame streaming) land in the service's trace ring and are
queryable over the wire with the ``get_trace`` op. The ``metrics`` op
returns the service's metrics registry as a mergeable snapshot — the
one stats document on the wire; the client renders text or the stats
table from it.

**Trust model**: the transport is unauthenticated and unencrypted —
it is meant for localhost and trusted networks (a lab cluster behind a
firewall), not the open internet. In particular the registration ops
let any connected peer name *server-visible* filesystem paths to load;
bind to ``127.0.0.1`` (the default) unless every peer that can reach
the port is trusted. TLS/auth hardening is a ROADMAP follow-on.

Typed failures cross the wire as error codes (:mod:`repro.serve.protocol`)
and are re-raised client-side as the same exception types the
in-process client raises: admission shedding surfaces as
:class:`~repro.serve.admission.QueueFull` /
:class:`~repro.serve.admission.DeadlineExpired`, unknown assets as
:class:`~repro.serve.registry.ModelNotFound` / :class:`KeyError`, shape
or config mismatches as
:class:`~repro.serve.registry.IncompatibleModel`.
"""

from __future__ import annotations

import dataclasses
import socketserver
import threading
import time
from typing import Sequence

import numpy as np

from repro.gnn.config import GNNConfig
from repro.obs.trace import wall_from_perf
from repro.runtime.api import RolloutRequest
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, read_message, take, to_wire, write_message
from repro.serve.service import InferenceService


class TransportError(RuntimeError):
    """Connection/protocol failure, or a server error with no local type."""


class RemoteServeError(TransportError):
    """The server reported an internal failure; carries its message."""


def parse_endpoint(value: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the ``--listen`` / client address syntax).

    Thread safety: pure function. Raises :class:`ValueError` with a
    human-readable reason on malformed input (empty host, non-numeric
    or out-of-range port, missing colon).
    """
    host, sep, port_s = value.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"port {port_s!r} is not an integer") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} outside [0, 65535]")
    return host, port


# -- server ------------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of request messages until the peer hangs up.

    Runs on its own thread (``ThreadingTCPServer``); everything it
    touches on the service is the service's own thread-safe API, so any
    number of connections may be in flight concurrently.
    """

    #: TCP_NODELAY on every accepted socket (applied in ``setup()``); see
    #: the module docstring's "No reply waits on a kernel timer"
    disable_nagle_algorithm = True

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        while True:
            try:
                message = read_message(self.rfile)
            except ProtocolError as exc:
                self._reply_error(protocol.ERR_BAD_REQUEST, str(exc))
                return
            except OSError:
                # reset between messages — what a client that discards a
                # mid-stream connection looks like from here; not an error
                return
            if message is None:  # clean EOF: client closed the connection
                return
            header, arrays = message
            try:
                if not self._dispatch(header, arrays):
                    return
            except (BrokenPipeError, ConnectionError, OSError):
                return  # peer went away mid-reply; nothing to clean up

    def _dispatch(self, header: dict, arrays: list[np.ndarray]) -> bool:
        """Serve one message; returns False to end the connection."""
        service: InferenceService = self.server.service  # type: ignore[attr-defined]
        try:
            op = take(header, "op", str)
            if op == "ping":
                self._reply({"type": "pong"})
            elif op in _STREAM_OPS:
                self._stream(service, op, header, arrays)
            elif op == "get_trace":
                spans = service.get_trace(take(header, "trace_id", str))
                self._reply(
                    {"type": "trace", "spans": [to_wire(s) for s in spans]}
                )
            elif op == "metrics":
                self._reply(
                    {
                        "type": "metrics",
                        "snapshot": service.metrics_registry().snapshot(),
                    }
                )
            elif op == "graph_keys":
                self._reply({"type": "graph_keys", "keys": service.graph_keys()})
            elif op == "models":
                self._reply({"type": "models", "names": service.registry.names()})
            elif op == "register_checkpoint":
                service.register_checkpoint(
                    take(header, "name", str),
                    take(header, "path", str),
                    expect_config=take(
                        header, "expect_config", GNNConfig | None, None
                    ),
                )
                self._reply({"type": "ok"})
            elif op == "register_graph_dir":
                service.register_graph_dir(
                    take(header, "key", str), take(header, "path", str)
                )
                self._reply({"type": "ok"})
            elif op == "register_graph":
                # graph upload: the arrays ARE the asset (see
                # protocol.graph_upload_message); parse errors map to
                # bad_request through the generic handler below
                key, graphs = protocol.parse_graph_upload(header, arrays)
                service.register_graph(key, graphs)
                self._reply({"type": "ok"})
            else:
                self._reply_error(
                    protocol.ERR_BAD_REQUEST, f"unknown op {op!r}"
                )
                return False
        except BaseException as exc:  # noqa: BLE001 - typed and sent to client
            if isinstance(exc, (BrokenPipeError, ConnectionError)):
                raise
            self._reply_error(protocol.error_code(exc), str(exc) or repr(exc))
        return True

    def _stream(
        self, service: InferenceService, op: str, header: dict,
        arrays: list[np.ndarray],
    ) -> None:
        """Serve one streamed op: frames as they complete, then ``done``.

        The one routine that writes stream frames; :data:`_STREAM_OPS`
        names each kind's request record and says how it encodes a
        frame and fills its ``done`` header.
        """
        request_type, encode, done_fields = _STREAM_OPS[op]
        try:
            request = protocol.parse_stream_message(
                request_type(), header, arrays
            )
        except ValueError as exc:
            self._reply_error(protocol.ERR_BAD_REQUEST, str(exc))
            return
        handle = service.submit(request)
        n = 0
        started = time.perf_counter()
        try:
            for frame in handle.frames():
                self._reply(*encode(frame))
                n += 1
        except BaseException as exc:  # noqa: BLE001 - forwarded as typed error
            self._serialize_span(service, request, started, n, failed=True)
            if isinstance(exc, (BrokenPipeError, ConnectionError)):
                raise
            self._reply_error(protocol.error_code(exc), str(exc) or repr(exc))
            return
        self._serialize_span(service, request, started, n, failed=False)
        self._reply({"type": "done", "n_frames": n, **done_fields(handle)})

    @staticmethod
    def _serialize_span(
        service: InferenceService,
        request,
        started: float,
        frames: int,
        failed: bool,
    ) -> None:
        """Record the frame-streaming span (``.npy`` encode + socket write)."""
        service.trace.record_span(
            request.trace_id,
            "serialize",
            "server",
            wall_from_perf(started),
            time.perf_counter() - started,
            status="failed" if failed else "ok",
            frames=frames,
        )

    def _reply(self, header: dict, arrays: Sequence[np.ndarray] = ()) -> None:
        write_message(self.wfile, header, arrays)

    def _reply_error(self, code: str, message: str) -> None:
        try:
            self._reply({"type": "error", "code": code, "message": message})
        except (BrokenPipeError, ConnectionError, OSError):
            pass


def _ensemble_request_type() -> type:
    # lazy: serve must not import ensemble at module load
    from repro.ensemble.api import EnsembleRequest

    return EnsembleRequest


#: streamed op -> (the request record's class, behind a call so the
#: ensemble's stays lazy; encode one frame; extra ``done`` header
#: fields). Per-frame wire bytes of an ensemble are independent of M
#: unless the client asked for raw members — the summaries/energy/
#: divergence payload depends only on the mesh and the summary selection.
_STREAM_OPS = {
    "rollout": (
        lambda: RolloutRequest,
        lambda frame: ({"type": "frame", "step": frame.step}, [frame.state]),
        lambda handle: {
            "metrics": (
                None if handle.metrics is None
                else dataclasses.asdict(handle.metrics)
            ),
        },
    ),
    "ensemble": (
        _ensemble_request_type,
        protocol.summary_frame_message,
        lambda handle: {
            "stability": (
                None if handle.stability is None
                else to_wire(handle.stability)
            ),
            "metrics": handle.metrics,
        },
    ),
}


class _ServeTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: listen backlog; socketserver's 5 drops the SYNs of a burst dial
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service: InferenceService):
        super().__init__(address, _Handler)
        self.service = service


class ServeServer:
    """TCP front end of one :class:`InferenceService` (start/stop or ``with``).

    Binds immediately at construction (``port=0`` picks an ephemeral
    port, exposed through :attr:`address` / :attr:`endpoint`);
    :meth:`start` spawns the accept loop on a daemon thread. The server
    does *not* own the service lifecycle — start the service first,
    stop the server before (or independently of) the service.

    Thread safety: ``start``/``stop`` are idempotent and may be called
    from any thread; connection handlers run one thread each and only
    touch the service's thread-safe API. Determinism: the transport
    adds no arithmetic — frames cross the wire in the ``.npy`` format,
    so served trajectories are bitwise identical to in-process ones.
    """

    def __init__(
        self,
        service: InferenceService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._tcp = _ServeTCPServer((host, port), service)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolved, even for ``port=0``)."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint(self) -> str:
        """``HOST:PORT`` string for ``connect(f"tcp://{endpoint}")``."""
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "ServeServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="serve-transport",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting connections and close the listening socket."""
        if self._thread is not None:
            self._tcp.shutdown()
            self._thread.join(timeout=timeout)
            self._thread = None
        self._tcp.server_close()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
