"""Transport edge cases the cluster's failover relies on.

Six failure shapes a shard can present, each with a required client
behavior:

* **half-close mid-frame** — the server dies partway through writing a
  frame; the client must surface a typed :class:`TransportError` (after
  its single reconnect attempt), never a truncated trajectory;
* **malformed error reply** — an ``error`` message without ``code`` /
  ``message`` is the peer's protocol violation: a typed
  :class:`TransportError` and a discarded connection, never the
  ``KeyError`` that means "unknown graph" (and that the cluster reads
  as "the shard answered, do not fail over");
* **wrong-typed reply fields** — a ``summary`` frame whose fields have
  the wrong JSON type is the same violation: :class:`TransportError`
  mid-stream, never a bare ``TypeError``; every other reply field (``names``, ``keys``, ``snapshot``, ``spans``, a
  ``done`` frame's ``stability``) likewise — a typed
  :class:`TransportError`, or ``get_trace``'s documented degrade;
* **short stream** — a ``done`` that announces a different frame count
  than was delivered (or none) is a broken stream, never a truncated
  success, and its connection is not re-pooled;
* **oversized frame** — a peer announcing an array blob beyond the
  protocol bound gets a ``bad_request`` error reply, not an allocation;
* **reconnect-after-redial** — an engine whose server went away (redial
  and all) recovers transparently once a server is listening again: no
  poisoned pool state survives the outage.

And one non-failure: asking an engine what it can do sends nothing —
the record is declared, not negotiated.
"""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.ensemble import EnsembleRequest
from repro.runtime import RolloutRequest, connect
from repro.runtime.remote import RemoteEngine
from repro.serve import ServeServer
from repro.serve.protocol import (
    MAX_ARRAY_BYTES,
    encode_array,
    read_message,
    write_message,
)
from repro.serve.transport import TransportError

from tests.runtime.conftest import make_engine


class RogueServer:
    """A protocol-speaking server that sabotages rollout streams.

    Answers ``ping`` (so ``RemoteEngine.connect`` succeeds) and records
    every op it reads in ``ops``; on ``rollout`` it writes
    the first ``prefix_bytes`` of a legitimate frame message and then
    hard-closes the connection — the half-close-mid-frame shape a
    crashed shard presents. With ``error_reply`` set, every op but
    ``ping`` (``rollout`` included) is answered with that message;
    ``replies`` scripts single ops instead (``{op: reply}``, a reply
    being one message or a list of them, a message a header or a
    ``(header, arrays)`` pair; read per request, so a live server can be
    re-scripted).
    """

    def __init__(self, prefix_bytes: int = 0, error_reply: dict | None = None,
                 replies: dict | None = None):
        self.prefix_bytes = prefix_bytes
        self.error_reply = error_reply
        self.replies = replies or {}
        self.ops: list = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)  # how often _serve sees close()
        self.endpoint = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except (socket.timeout, OSError):
                continue
            stream = conn.makefile("rwb")
            try:
                while True:
                    message = read_message(stream)
                    if message is None:
                        break
                    header, _ = message
                    self.ops.append(header.get("op"))
                    if header.get("op") == "ping":
                        write_message(stream, {"type": "pong"})
                    elif header.get("op") in self.replies:
                        reply = self.replies[header["op"]]
                        for message in reply if isinstance(reply, list) else [reply]:
                            if isinstance(message, dict):
                                message = (message,)
                            write_message(stream, *message)
                    elif self.error_reply is not None:
                        write_message(stream, self.error_reply)
                    elif header.get("op") == "rollout":
                        frame = self._frame_bytes()
                        stream.write(frame[: self.prefix_bytes])
                        stream.flush()
                        conn.shutdown(socket.SHUT_RDWR)  # hard close
                        break
                    else:
                        write_message(
                            stream,
                            {"type": "error", "code": "bad_request",
                             "message": "rogue"},
                        )
            except Exception:  # noqa: BLE001 - test double
                pass
            finally:
                try:
                    stream.close()
                except OSError:
                    # the client hung up on a reply: close() re-flushes
                    # the unsent bytes, and an escape would end the thread
                    pass
                finally:
                    conn.close()

    @staticmethod
    def _frame_bytes() -> bytes:
        import io

        buf = io.BytesIO()
        write_message(buf, {"type": "frame", "step": 0},
                      [np.zeros((16, 3))])
        return buf.getvalue()

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=5.0)


class TestHalfCloseMidFrame:
    @pytest.mark.parametrize("prefix_bytes", [3, 40])
    def test_mid_frame_death_is_typed_transport_error(self, prefix_bytes):
        """Cut inside the length prefix or inside the blob: either way
        the client reports a broken stream, never a short success."""
        server = RogueServer(prefix_bytes=prefix_bytes)
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            with pytest.raises(TransportError, match="stream broke|closed"):
                engine.rollout(
                    RolloutRequest(model="m", graph="g",
                                   x0=np.zeros((4, 3)), n_steps=2)
                )
            engine.close()
        finally:
            server.close()


class TestMalformedErrorReply:
    @pytest.mark.parametrize("reply", [
        {"type": "error"},
        {"type": "error", "code": "graph_not_found"},
        {"type": "error", "code": ["bad_request"], "message": "x"},
    ])
    def test_unary_and_stream_raise_transport_error(self, reply):
        server = RogueServer(error_reply=reply)
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            with pytest.raises(TransportError, match="malformed error reply"):
                engine.model_names()
            with pytest.raises(TransportError, match="malformed error reply"):
                engine.rollout(
                    RolloutRequest(model="m", graph="g",
                                   x0=np.zeros((4, 3)), n_steps=2)
                )
            # a violating peer's connection is not re-pooled
            assert engine.pool_stats().idle == 0
            engine.close()
        finally:
            server.close()

    def test_well_formed_error_still_maps_to_its_type(self):
        server = RogueServer(error_reply={
            "type": "error", "code": "graph_not_found", "message": "nope",
        })
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            with pytest.raises(KeyError, match="nope"):
                engine.graph_keys()
            assert engine.pool_stats().idle == 1  # healthy: kept
            engine.close()
        finally:
            server.close()


class TestWrongTypedReplyFields:
    """Outside input with the wrong JSON types is a protocol violation
    (typed), not a ``TypeError`` out of ``int()`` / ``list()``."""

    @pytest.mark.parametrize("bad", [
        {"members": None},
        {"summaries": 5},
    ])
    def test_wrong_typed_summary_frame_is_transport_error(self, bad):
        summary = {"type": "summary", "step": 0, "n_members": 2,
                   "divergence": 0.0, "summaries": [], "members": 0, **bad}
        server = RogueServer(replies={"ensemble": summary})
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            with pytest.raises(TransportError, match="members|summaries"):
                engine.ensemble(
                    EnsembleRequest("m", "g", np.zeros((4, 3)), n_steps=1,
                                    n_members=2)
                )
            assert engine.pool_stats().idle == 0  # mid-stream: discarded
            engine.close()
        finally:
            server.close()


ROLLOUT = RolloutRequest(model="m", graph="g", x0=np.zeros((4, 3)), n_steps=3)
ENSEMBLE = EnsembleRequest("m", "g", np.zeros((4, 3)), n_steps=3, n_members=2)


class TestMalformedReplyFields:
    """Every reply field is read through the wire codec: a missing or
    mistyped one is the peer's protocol violation — a typed
    :class:`TransportError` — never the ``KeyError`` (this repo's
    spelling of *graph not found*), ``TypeError`` or ``AttributeError``
    a bare ``reply[key]`` leaks."""

    @pytest.mark.parametrize("call, reply", [
        ("model_names", {"type": "models"}),
        ("model_names", {"type": "models", "names": "m"}),
        ("model_names", {"type": "models", "names": [1]}),
        ("graph_keys", {"type": "graph_keys"}),
        ("graph_keys", {"type": "graph_keys", "keys": {"g": 1}}),
        ("metrics_registry", {"type": "metrics"}),
        ("metrics_registry", {"type": "metrics", "snapshot": [1]}),
        ("metrics_registry", {"type": "metrics", "snapshot": {"x": 5}}),
        ("metrics_registry",
         {"type": "metrics",
          "snapshot": {"x": {"kind": "counter", "samples": [{}]}}}),
    ])
    def test_unary_reply_is_transport_error(self, call, reply):
        ops = {"model_names": "models", "graph_keys": "graph_keys",
               "metrics_registry": "metrics"}
        server = RogueServer(replies={ops[call]: reply})
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            with pytest.raises(TransportError, match="malformed"):
                getattr(engine, call)()
            engine.close()
        finally:
            server.close()

    @pytest.mark.parametrize("reply", [
        {"type": "trace"},
        {"type": "trace", "spans": 7},
        {"type": "trace", "spans": [{"trace_id": "t"}]},
    ])
    def test_get_trace_degrades_to_the_local_spans(self, reply):
        server = RogueServer(replies={"get_trace": reply})
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            engine.trace.record_span("t", "network", "client", 1.0, 0.5)
            assert [s.name for s in engine.get_trace("t")] == ["network"]
            engine.close()
        finally:
            server.close()

    @pytest.mark.parametrize("stability", [
        "stable", {"energy": "x"}, {"blow_up": {"step": 1}},
        {"early_stopped": "no"},
    ])
    def test_malformed_stability_on_done_is_transport_error(self, stability):
        server = RogueServer(replies={
            "ensemble": {"type": "done", "n_frames": 0,
                         "stability": stability},
        })
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            with pytest.raises(TransportError, match="stability"):
                engine.ensemble(ENSEMBLE)
            assert engine.pool_stats().idle == 0  # violating: discarded
            engine.close()
        finally:
            server.close()


class TestShortStream:
    """``done`` announces how many frames preceded it; the client holds
    the server to it, so a stream cut short *cleanly* is as typed a
    failure as one cut mid-frame (the cluster marks the shard DOWN and
    redrives, skipping the delivered prefix)."""

    FRAME = ({"type": "frame", "step": 0}, [np.zeros((4, 3))])
    SUMMARY = ({"type": "summary", "step": 0, "n_members": 2,
                "divergence": 0.0, "summaries": [], "members": 0},
               [np.zeros(3)])

    @pytest.mark.parametrize("request_, op, reply", [
        (ROLLOUT, "rollout", [{"type": "done"}]),
        (ROLLOUT, "rollout", [{"type": "done", "n_frames": 4}]),
        (ROLLOUT, "rollout", [FRAME, {"type": "done", "n_frames": 4}]),
        (ROLLOUT, "rollout", [FRAME, FRAME, {"type": "done", "n_frames": 1}]),
        (ROLLOUT, "rollout", [FRAME, {"type": "done", "n_frames": True}]),
        (ENSEMBLE, "ensemble", [{"type": "done"}]),
        (ENSEMBLE, "ensemble", [SUMMARY, {"type": "done", "n_frames": 4}]),
    ])
    def test_done_must_match_the_frames_delivered(self, request_, op, reply):
        server = RogueServer(replies={op: reply})
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            future = engine.submit(request_)
            with pytest.raises(TransportError, match="n_frames|announced"):
                future.result()
            # the failure is sticky, and the connection is not re-pooled
            with pytest.raises(TransportError):
                future.result()
            assert engine.pool_stats().idle == 0
            engine.close()
        finally:
            server.close()

    def test_matching_done_is_a_success_and_repools(self):
        server = RogueServer(replies={
            "rollout": [self.FRAME, {"type": "done", "n_frames": 1}],
        })
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            assert len(engine.rollout(ROLLOUT).states) == 1
            assert engine.pool_stats().idle == 1
            engine.close()
        finally:
            server.close()


class TestOversizedFrames:
    def test_server_rejects_oversized_blob_announcement(self, asset_paths):
        """A raw peer claiming a > MAX_ARRAY_BYTES blob receives a
        bad_request error reply — the server neither allocates nor
        dies."""
        with make_engine("tcp", asset_paths) as engine:
            sock = socket.create_connection((engine.host, engine.port),
                                            timeout=10.0)
            try:
                with sock.makefile("rwb") as stream:
                    payload = b'{"arrays":1,"op":"rollout"}'
                    stream.write(struct.pack(">I", len(payload)))
                    stream.write(payload)
                    stream.write(struct.pack(">Q", MAX_ARRAY_BYTES + 1))
                    stream.write(b"x" * 32)
                    stream.flush()
                    sock.shutdown(socket.SHUT_WR)
                    reply, _ = read_message(stream)
                    assert reply["type"] == "error"
                    assert reply["code"] == "bad_request"
            finally:
                sock.close()
            # ...and the service keeps serving normal clients
            engine.ping()

    def test_client_refuses_to_send_oversized_arrays(self):
        """Write-side symmetry: the encoder enforces the same bound."""
        blob = encode_array(np.zeros(8))
        assert len(blob) < MAX_ARRAY_BYTES  # sanity: normal arrays fit


class TestReconnectAfterRedial:
    def test_engine_recovers_once_a_server_listens_again(self, asset_paths,
                                                         x0):
        """Outage lifecycle: serve -> server gone (redial fails, typed
        error) -> server back on the same port -> same engine serves
        again with a fresh dial. The cluster layer leans on exactly
        this to bring a DOWN shard back to UP."""
        with make_engine("pool", asset_paths) as backend:
            server = ServeServer(backend.service)
            host, port = server.address
            server.start()
            engine = connect(f"tcp://{host}:{port}")
            request = RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1)
            assert len(engine.rollout(request).states) == 2
            dials_before = engine.pool_stats().dials

            server.stop()
            # sever the surviving pooled connection too: a real outage
            # (host down, middlebox cut) kills established sockets, not
            # just the listener — ThreadingTCPServer's graceful stop
            # cannot model that part
            idle = engine._pool.acquire()
            engine._pool.discard(idle)
            with pytest.raises(TransportError):
                engine.rollout(request)

            # same endpoint comes back (a restarted shard)
            server2 = ServeServer(backend.service, host, port)
            server2.start()
            try:
                result = engine.rollout(request)
                assert len(result.states) == 2
                assert engine.pool_stats().dials > dials_before
            finally:
                server2.stop()
                engine.close()


class TestCapabilitiesAreDeclared:
    """``capabilities()`` reads the engine's own record: no op crosses
    the wire for it, on a ``tcp://`` engine or a cluster of them."""

    def test_remote_engine_sends_no_message(self):
        server = RogueServer()
        try:
            engine = RemoteEngine.connect(server.endpoint,
                                          request_timeout_s=10.0)
            caps = engine.capabilities()
            assert (caps.training, caps.in_memory_assets) == (False, False)
            engine.close()
            assert server.ops == ["ping"]  # connect's liveness check only
        finally:
            server.close()

    def test_cluster_over_tcp_shards_sends_no_message(self):
        from repro.cluster import ClusterEngine

        servers = [RogueServer(), RogueServer()]
        try:
            cluster = ClusterEngine.connect(
                [s.endpoint for s in servers], request_timeout_s=10.0,
                health_interval_s=None,
            )
            caps = cluster.capabilities()
            assert (caps.training, caps.in_memory_assets) == (False, False)
            cluster.close()
            for server in servers:
                assert server.ops == ["ping"]
        finally:
            for server in servers:
                server.close()
