"""End-to-end socket transport: bitwise consistency, streaming, errors.

The acceptance claim of the transport layer: a trajectory requested
through the socket is **bitwise identical** to the same request served
in-process, in single- and multi-rank modes. These tests stand up a
real ``ServeServer`` on an ephemeral port and speak to it through
:class:`~repro.runtime.remote.RemoteEngine` over actual TCP
connections.
"""

import io
import json
import socket
import statistics
import struct
import threading
import time

import numpy as np
import pytest

from repro.gnn import GNNConfig, MeshGNN, rollout, save_checkpoint
from repro.graph import build_full_graph
from repro.graph.io import save_distributed_graph
from repro.mesh import BoxMesh, taylor_green_velocity
from repro.runtime.api import CapabilityError, RolloutRequest
from repro.runtime.remote import RemoteEngine, _ConnectionPool
from repro.serve import (
    InferenceService,
    QueueFull,
    ServeConfig,
    ServeServer,
    ServeStats,
    TransportError,
    parse_endpoint,
)
from repro.serve import protocol, transport
from repro.serve.protocol import encode_array, read_message, write_message
from repro.serve.registry import IncompatibleModel, ModelNotFound
from tests.serve.conftest import SERVE_CONFIG


@pytest.fixture()
def service(serve_model, full_graph, dist_graph):
    with InferenceService(ServeConfig(max_batch_size=4, max_wait_s=0.0)) as svc:
        svc.register_model("m", serve_model)
        svc.register_graph("g1", [full_graph])
        svc.register_graph("g4", dist_graph.locals)
        yield svc


@pytest.fixture()
def server(service):
    with ServeServer(service) as srv:
        yield srv


@pytest.fixture()
def client(server):
    engine = RemoteEngine.connect(server.endpoint, request_timeout_s=60.0)
    yield engine
    engine.close()


def req(model, graph, x0, n_steps, **kwargs) -> RolloutRequest:
    return RolloutRequest(
        model=model, graph=graph, x0=x0, n_steps=n_steps, **kwargs
    )


def local_rollout(service, request) -> list:
    """The in-process reference trajectory for one request."""
    return service.submit(request).result().states


def assert_bitwise_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype == np.float64
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestEndpointParsing:
    @pytest.mark.parametrize("value,expected", [
        ("127.0.0.1:7431", ("127.0.0.1", 7431)),
        ("localhost:0", ("localhost", 0)),
        ("::1:8080", ("::1", 8080)),
    ])
    def test_valid(self, value, expected):
        assert parse_endpoint(value) == expected

    @pytest.mark.parametrize("value", [
        "no-port", ":7431", "host:", "host:notaport", "host:-1", "host:70000",
    ])
    def test_invalid(self, value):
        with pytest.raises(ValueError):
            parse_endpoint(value)


class TestBitwiseConsistency:
    def test_single_rank(self, service, client, x0):
        local = local_rollout(service, req("m", "g1", x0, 3))
        net = client.rollout(req("m", "g1", x0, 3)).states
        assert_bitwise_equal(local, net)

    def test_multi_rank(self, service, client, x0):
        local = local_rollout(service, req("m", "g4", x0, 3))
        net = client.rollout(req("m", "g4", x0, 3)).states
        assert_bitwise_equal(local, net)

    def test_step_matches_in_process(self, service, client, x0):
        assert_bitwise_equal(
            [local_rollout(service, req("m", "g4", x0, 1))[1]],
            [client.rollout(req("m", "g4", x0, 1)).final],
        )

    def test_residual_and_halo_mode_forwarded(self, service, client, x0):
        local = local_rollout(
            service, req("m", "g4", x0, 2, halo_mode="a2a", residual=True)
        )
        net = client.rollout(
            req("m", "g4", x0, 2, halo_mode="a2a", residual=True)
        ).states
        assert_bitwise_equal(local, net)


class TestStreaming:
    def test_frames_arrive_in_order_with_x0_first(self, client, x0):
        frames = list(client.stream(req("m", "g1", x0, 3)))
        assert [f.step for f in frames] == [0, 1, 2, 3]
        np.testing.assert_array_equal(frames[0].state, x0)

    def test_submit_future_result_and_metrics(self, client, x0):
        future = client.submit(req("m", "g4", x0, 2))
        assert not future.done
        result = future.result()
        assert future.done and len(result.states) == 3
        assert future.metrics is not None
        assert future.metrics["n_steps"] == 2
        assert future.metrics["world_size"] == 4

    def test_result_after_streaming_returns_full_trajectory(self, client, x0):
        future = client.submit(req("m", "g1", x0, 2))
        streamed = [f.state for f in future.frames()]
        result = future.result()
        assert len(streamed) == len(result.states) == 3
        assert_bitwise_equal(streamed, result.states)


class TestErrorPropagation:
    def test_unknown_model(self, client, x0):
        with pytest.raises(ModelNotFound):
            client.rollout(req("nope", "g1", x0, 1))

    def test_unknown_graph(self, client, x0):
        with pytest.raises(KeyError):
            client.rollout(req("m", "nope", x0, 1))

    def test_shape_mismatch(self, client, x0):
        with pytest.raises(IncompatibleModel):
            client.rollout(req("m", "g1", x0[:-1], 1))

    def test_bad_request_rejected(self, client, x0):
        with pytest.raises(ValueError):
            client.rollout(req("m", "g1", x0, 0))

    def test_missing_header_field_is_bad_request(self, server):
        """A malformed message must not masquerade as graph-not-found."""
        sock = socket.create_connection(server.address, timeout=10.0)
        with sock, sock.makefile("rwb") as stream:
            write_message(
                stream,
                {"op": "rollout", "graph": "g1", "n_steps": 1},  # no "model"
                [np.zeros((75, 3))],
            )
            header, _ = read_message(stream)
        assert header["type"] == "error"
        assert header["code"] == "bad_request"
        assert "model" in header["message"]

    @pytest.mark.parametrize("message, names", [
        ({"op": "register_checkpoint", "name": "m9", "path": "/x.npz",
          "expect_config": {"bogus": 1}}, "expect_config"),
        ({"op": "register_checkpoint", "name": "m9", "path": "/x.npz",
          "expect_config": [1, 2]}, "expect_config"),
        ({"op": "register_graph_dir", "key": ["k"], "path": "/x"}, "key"),
        ({"op": "rollout", "model": ["a"], "graph": "g1", "n_steps": 1},
         "model"),
    ])
    def test_wrong_typed_header_field_is_bad_request(self, server, message,
                                                     names):
        """Outside input of the wrong type is the peer's bad request,
        never an ``internal`` failure (``unhashable type`` in a registry
        lookup, ``TypeError`` constructing a config)."""
        arrays = [np.zeros((75, 3))] if message["op"] == "rollout" else []
        sock = socket.create_connection(server.address, timeout=10.0)
        with sock, sock.makefile("rwb") as stream:
            write_message(stream, message, arrays)
            header, _ = read_message(stream)
        assert header["type"] == "error"
        assert header["code"] == "bad_request"
        assert names in header["message"]

    def test_checkpoint_path_that_is_a_directory_is_bad_request(
        self, server, tmp_path
    ):
        """A path that is not a regular file is the peer's bad request,
        like a missing one (never ``internal``)."""
        reply = raw_exchange(server, {
            "op": "register_checkpoint", "name": "m9",
            "path": str(tmp_path),
        })
        assert (reply["type"], reply["code"]) == ("error", "bad_request")
        assert "checkpoint file" in reply["message"]

    def test_unreachable_endpoint(self):
        with pytest.raises(TransportError, match="cannot reach"):
            RemoteEngine("127.0.0.1", 1).ping()

    def test_in_memory_model_registration_refused(self, client, serve_model):
        with pytest.raises(CapabilityError, match="checkpoint"):
            client.register_model("m2", serve_model)


INF = "@1e999@"  # spliced into the JSON text as the literal 1e999


def raw_exchange(server, header: dict, blobs=(), **envelope) -> dict:
    """Send one hand-framed message, return the first reply's header.

    Frames by hand so the JSON can carry what ``write_message`` never
    would: the overflowing literal ``1e999`` (:data:`INF`) and (via
    ``envelope``) an ``arrays`` count that is not the number of blobs.
    """
    body = {**header, "arrays": len(blobs), **envelope}
    payload = json.dumps(body).replace(f'"{INF}"', "1e999").encode()
    sock = socket.create_connection(server.address, timeout=10.0)
    with sock, sock.makefile("rwb") as stream:
        stream.write(struct.pack(">I", len(payload)) + payload)
        for blob in map(encode_array, blobs):
            stream.write(struct.pack(">Q", len(blob)) + blob)
        stream.flush()
        reply, _ = read_message(stream)
    return reply


class TestStrictHeaderTyping:
    """A header field of the wrong JSON kind is the peer's bad request
    naming the field — never coerced into a *different* question
    (``bool("no")``, ``int(2.7)``, ``int(True)``) and served, never an
    ``internal`` failure (``int(inf)``)."""

    ROLLOUT = {"op": "rollout", "model": "m", "graph": "g1", "n_steps": 1}
    ENSEMBLE = {**ROLLOUT, "op": "ensemble", "n_members": 2}

    @pytest.mark.parametrize("base, field, value", [
        (ROLLOUT, "residual", "no"),
        (ROLLOUT, "residual", 0),
        (ROLLOUT, "n_steps", 2.7),
        (ROLLOUT, "n_steps", True),
        (ROLLOUT, "n_steps", "3"),
        (ROLLOUT, "n_steps", INF),
        (ROLLOUT, "deadline_s", True),
        (ROLLOUT, "deadline_s", "soon"),
        (ROLLOUT, "trace_id", 7),
        (ROLLOUT, "halo_mode", ["a2a"]),
        (ROLLOUT, "bogus", 1),
        (ENSEMBLE, "n_members", INF),
        (ENSEMBLE, "return_members", "yes"),
        (ENSEMBLE, "perturbation", {"seed": INF}),
        (ENSEMBLE, "perturbation", None),
        (ENSEMBLE, "perturbation", {"sweep": {"0": 1.0}}),
        (ENSEMBLE, "quantiles", {"0": 0.5}),
        (ENSEMBLE, "summaries", "mean"),
        (ENSEMBLE, "stability", {"early_stop": "no"}),
        (ENSEMBLE, "member_range", [0, 1, 2]),
    ])
    def test_mistyped_stream_field_is_bad_request(self, server, base, field,
                                                  value):
        reply = raw_exchange(server, {**base, field: value},
                             [np.zeros((75, 3))])
        assert (reply["type"], reply["code"]) == ("error", "bad_request")
        assert field in reply["message"]

    def test_well_typed_twin_is_served(self, server):
        """The control: the same headers, correctly typed, stream."""
        for header in (self.ROLLOUT, self.ENSEMBLE):
            reply = raw_exchange(server, header, [np.zeros((75, 3))])
            assert reply["type"] in ("frame", "summary")

    @pytest.mark.parametrize("header, names", [
        ({"op": "register_checkpoint", "name": "m9", "path": 5}, "path"),
        ({"op": "register_checkpoint", "name": "m9", "path": "/x.npz",
          "expect_config": {"hidden": "8"}}, "expect_config.hidden"),
        ({"op": "get_trace", "trace_id": 5}, "trace_id"),
        ({"op": "get_trace"}, "trace_id"),
        ({"op": "register_graph", "key": "g", "ranks": [{
            "rank": 0, "size": INF, "pad_count": 0, "neighbors": [],
            "recv_counts": []}]}, "ranks[0].size"),
        ({"op": "register_graph", "key": "g", "ranks": {"0": {}}}, "ranks"),
    ])
    def test_mistyped_unary_field_is_bad_request(self, server, header, names):
        reply = raw_exchange(server, header)
        assert (reply["type"], reply["code"]) == ("error", "bad_request")
        assert names in reply["message"]

    @pytest.mark.parametrize("n_arrays", [True, 1.0, "1", None, [1]])
    def test_array_count_must_be_an_integer(self, server, n_arrays):
        """``isinstance(True, int)``: a boolean count used to read one
        blob."""
        reply = raw_exchange(server, self.ROLLOUT, [np.zeros((75, 3))],
                             arrays=n_arrays)
        assert (reply["type"], reply["code"]) == ("error", "bad_request")
        assert "array count" in reply["message"]


class TestAdmissionOverTheWire:
    def test_queue_full_surfaces_as_typed_rejection(
        self, serve_model, full_graph, x0
    ):
        config = ServeConfig(
            max_batch_size=1, max_wait_s=0.0, max_queue_depth=1, n_workers=1
        )
        svc = InferenceService(config)
        svc.register_model("m", serve_model)
        svc.register_graph("g1", [full_graph])
        svc._started = True  # no worker: queue depth is fully controlled
        try:
            with ServeServer(svc) as srv:
                client = RemoteEngine.connect(srv.endpoint)
                first = client.submit(req("m", "g1", x0, 1))
                # occupy the single queue slot server-side
                import time
                deadline = time.perf_counter() + 5.0
                while svc._queue.depth() < 1:
                    assert time.perf_counter() < deadline
                    time.sleep(0.005)
                with pytest.raises(QueueFull):
                    client.rollout(req("m", "g1", x0, 1))
                assert not first.done
        finally:
            svc._queue.close()


class TestAssetRegistrationByPath:
    def test_checkpoint_and_graph_dir(
        self, client, serve_model, dist_graph, x0, tmp_path
    ):
        ckpt = tmp_path / "model.npz"
        save_checkpoint(serve_model, ckpt)
        graph_dir = tmp_path / "graphs"
        save_distributed_graph(dist_graph, graph_dir)

        client.register_checkpoint("ckpt", ckpt, expect_config=SERVE_CONFIG)
        client.register_graph_dir("gdir", graph_dir)
        assert "gdir" in client.graph_keys()
        assert "ckpt" in client.model_names()

        net = client.rollout(req("ckpt", "gdir", x0, 2)).states
        direct = client.rollout(req("m", "g4", x0, 2)).states
        assert_bitwise_equal(net, direct)

    def test_missing_checkpoint_path(self, client, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            client.register_checkpoint("nope", tmp_path / "missing.npz")


class TestStatsOverTheWire:
    def test_stats_reconstruct(self, client, x0):
        client.rollout(req("m", "g1", x0, 1))
        stats = client.stats()
        assert isinstance(stats, ServeStats)
        assert stats.requests >= 1
        assert stats.admission.accepted >= 1
        assert stats.admission.queue_wait.total >= 1

    def test_markdown_rendered_server_side(self, client, x0):
        client.rollout(req("m", "g1", x0, 1))
        md = client.stats_markdown()
        assert "admission accepted / shed / expired" in md
        assert "queue wait p50" in md


class TestObservabilityOverTheWire:
    def test_trace_spans_cross_the_wire(self, client, x0):
        request = req("m", "g1", x0, 2)
        client.rollout(request)
        spans = client.get_trace(request.trace_id)
        assert spans, "rollout left no trace"
        assert {s.trace_id for s in spans} == {request.trace_id}
        names = {s.name for s in spans}
        # server-side lifecycle stages plus the client's network span
        assert {"admission", "queue", "execute", "serialize"} <= names
        assert "network" in names
        components = {s.component for s in spans}
        assert {"server", "client"} <= components
        # spans come back chronologically ordered
        starts = [s.start_s for s in spans]
        assert starts == sorted(starts)

    def test_unknown_trace_returns_client_side_only(self, client, x0):
        client.rollout(req("m", "g1", x0, 1))
        assert client.get_trace("no-such-trace") == []

    def test_metrics_op_round_trip(self, client, x0):
        client.rollout(req("m", "g1", x0, 1))
        registry = client.metrics_registry()
        text = client.metrics_text()
        assert "repro_requests_total" in text
        # the reconstructed snapshot renders the server's exact text
        assert registry.prometheus_text() == text


class TestConcurrentClients:
    def test_parallel_networked_requests_batch_and_match(
        self, service, server, x0
    ):
        n = 6
        results: list = [None] * n

        def fire(i):
            engine = RemoteEngine(*server.address)
            results[i] = engine.rollout(req("m", "g4", x0, 2)).states
            engine.close()

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = local_rollout(service, req("m", "g4", x0, 2))
        for res in results:
            assert_bitwise_equal(res, reference)

    def test_one_connection_serves_many_requests(self, server, x0):
        # unary ops reuse pooled connections; this asserts the handler loops
        client = RemoteEngine(*server.address)
        for _ in range(3):
            client.ping()
        assert client.graph_keys() == ["g1", "g4"]
        assert client.pool_stats().dials == 1


@pytest.fixture()
def quiet_handlers(monkeypatch):
    """``(reported, handled)``: every ``handle_error`` call ``socketserver``
    would have printed a traceback for, and an event set each time a
    handler returns."""
    reported, handled = [], threading.Event()
    monkeypatch.setattr(
        transport._ServeTCPServer, "handle_error",
        lambda self, request, address: reported.append(address),
    )
    original = transport._Handler.handle

    def handle(self):
        try:
            original(self)
        finally:
            handled.set()

    monkeypatch.setattr(transport._Handler, "handle", handle)
    return reported, handled


def close_with_reset(sock) -> None:
    """Linger 0: ``close()`` sends RST, whatever is still unread."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def assert_left_quietly(server, quiet_handlers) -> None:
    """The handler returned, the server keeps serving, nothing was reported."""
    reported, handled = quiet_handlers
    assert handled.wait(10.0), "the handler never saw the peer leave"
    client = RemoteEngine(*server.address)
    client.ping()
    client.close()
    assert reported == []


class TestPeerGoesAway:
    """A peer leaving is not a server fault: it must never reach
    ``socketserver``'s ``handle_error`` traceback printer, and the
    server keeps serving."""

    def test_reset_between_messages_ends_the_connection_quietly(
        self, server, quiet_handlers
    ):
        """A client that discards a connection with a reply unread (what
        an early-stopped or abandoned stream does) resets it; the
        handler's next read fails with ``ConnectionResetError``."""
        sock = socket.create_connection(server.address, timeout=10.0)
        with sock.makefile("rwb") as stream:
            write_message(stream, {"op": "ping"})
            stream.flush()
        # wait for the whole pong without consuming it: the handler is
        # then back in read_message, which is where the reset must land
        pong = io.BytesIO()
        write_message(pong, {"type": "pong"})
        expected = pong.getvalue()
        deadline = time.monotonic() + 10.0
        while sock.recv(len(expected), socket.MSG_PEEK) != expected:
            assert time.monotonic() < deadline, "no pong"
            time.sleep(0.001)
        close_with_reset(sock)
        assert_left_quietly(server, quiet_handlers)

    def test_discard_mid_stream_ends_the_connection_quietly(
        self, server, quiet_handlers, x0
    ):
        """The client leaves after the first frame of a 4-step rollout:
        the handler's next frame write fails. ``wfile`` is unbuffered,
        so nothing is left for ``finish()`` to flush into the dead
        socket — the case a buffered ``wfile`` turns into a traceback."""
        sock = socket.create_connection(server.address, timeout=10.0)
        stream = sock.makefile("rwb")
        write_message(stream, *protocol.stream_message("rollout", req("m", "g1", x0, 4)))
        header, _ = read_message(stream)
        assert header["type"] == "frame" and header["step"] == 0
        stream.close()
        close_with_reset(sock)
        assert_left_quietly(server, quiet_handlers)


class TestBurstDial:
    def test_sixteen_simultaneous_connects_none_waits_for_a_syn_retransmit(
        self, server
    ):
        """A listen backlog shorter than the burst drops SYNs, and a
        dropped SYN is retried by the dialler's kernel after ~1 s."""
        n = 16
        barrier = threading.Barrier(n)
        seconds: list = [None] * n
        socks: list = []

        def dial(i):
            barrier.wait()
            t0 = time.perf_counter()
            socks.append(socket.create_connection(server.address, timeout=10.0))
            seconds[i] = time.perf_counter() - t0

        threads = [threading.Thread(target=dial, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for sock in socks:
            sock.close()
        assert max(seconds) < 0.5, sorted(seconds)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    covered, edge = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > max(start, edge):
            covered += end - max(start, edge)
            edge = end
    return covered


class TestNoKernelTimerOnTheRequestPath:
    """No reply waits on Nagle + delayed ACK (~40 ms each): both ends of
    every socket carry ``TCP_NODELAY``, so a ``tcp://`` request costs its
    work plus a round trip, and the server's spans account for it."""

    @pytest.fixture(scope="class")
    def bench(self):
        """The e2e ``serve_tcp`` shape: tiny model, one worker, no
        batching window; the direct trajectory and the request."""
        mesh = BoxMesh(2, 2, 2, p=2)
        model = MeshGNN(GNNConfig(hidden=8, n_message_passing=2, n_mlp_hidden=1, seed=3))
        graph = build_full_graph(mesh)
        state = taylor_green_velocity(mesh.all_positions())
        config = ServeConfig(max_batch_size=8, max_wait_s=0.0)
        with InferenceService(config) as svc, ServeServer(svc) as srv:
            svc.register_model("m", model)
            svc.register_graph("g", [graph])
            engine = RemoteEngine.connect(srv.endpoint, request_timeout_s=60.0)
            direct = lambda: rollout(model, graph, state, 4)
            request = lambda: req("m", "g", state, 4)
            yield engine, direct, request
            engine.close()

    def test_nodelay_is_set_on_accept(self, server, monkeypatch):
        seen, original = [], transport._Handler.setup

        def setup(self):
            original(self)
            seen.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(transport._Handler, "setup", setup)
        client = RemoteEngine(*server.address)
        client.ping()
        client.close()
        assert seen and all(seen)

    def test_nodelay_is_set_on_dial_and_on_redial(self, server):
        pool = _ConnectionPool(*server.address, size=1, request_timeout_s=10.0)
        for conn in (pool.acquire(), pool.redial()):
            assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            conn.close()
        assert pool.stats().dials == 2

    def test_unary_round_trip_is_far_below_a_delayed_ack(self, bench):
        engine = bench[0]
        engine.model_names()
        seconds = []
        for _ in range(30):
            t0 = time.perf_counter()
            engine.model_names()
            seconds.append(time.perf_counter() - t0)
        # ~44 ms with the timer, ~0.05 ms without
        assert statistics.median(seconds) < 0.010, sorted(seconds)

    @pytest.fixture(scope="class")
    def rollouts(self, bench):
        """20 four-step rollouts, direct and over ``tcp://`` in turn:
        seconds of each, and the share of the client's wall time the
        de-overlapped ``server`` spans of the request's trace cover."""
        engine, direct, request = bench
        assert_bitwise_equal(engine.rollout(request()).states, direct())
        direct_s, wire_s, shares = [], [], []
        for _ in range(20):
            t0 = time.perf_counter()
            direct()
            direct_s.append(time.perf_counter() - t0)
            sent = request()
            t0 = time.perf_counter()
            engine.rollout(sent)
            wall = time.perf_counter() - t0
            wire_s.append(wall)
            spans = [
                s for s in engine.get_trace(sent.trace_id) if s.component == "server"
            ]
            shares.append(
                union_length((s.start_s, s.start_s + s.duration_s) for s in spans) / wall
            )
        return direct_s, wire_s, shares

    def test_rollout_costs_its_work_plus_a_round_trip(self, rollouts):
        direct_s, wire_s, _ = rollouts
        # +40 ms with the timer (one per reply), +2.5 ms without
        assert statistics.median(wire_s) < statistics.median(direct_s) + 0.015

    def test_server_spans_add_up_to_the_client_wall_time(self, rollouts):
        """The budget adds up: 0.13 with the timer (the unnamed share WAS
        the timer), ~0.9 without — and spans never cover more than the wall."""
        shares = rollouts[2]
        assert statistics.median(shares) >= 0.80, sorted(shares)
        assert max(shares) <= 1.0, sorted(shares)
