"""Property tests: the wire under generated adversity.

The serving stack's claim is that a request served over the socket is
the evaluation that was asked for — so everything that crosses it is
attacked here with generated input instead of hand-picked cases:

1. **bytes** — arbitrary byte strings, and valid frames with one byte
   mutated or cut at every prefix, fed to ``read_message``: the outcome
   is ``None``, a message, or :class:`ProtocolError` — no other
   exception, and no single read request beyond the declared caps;
2. **type matrix** — every wire field of every record × every JSON
   kind: accepted iff the kind is the annotated one, otherwise a
   ``ValueError`` naming the field by its dotted path;
3. **live server** — mutated request headers against one real
   ``ServeServer``: every reply is a stream ending in ``done`` or a
   *typed* error (never ``internal``), and the server still answers;
4. **live client** — a scripted server answering with one mutated
   field per reply kind: a typed :class:`TransportError` or the op's
   documented degrade, never ``KeyError`` / ``TypeError`` /
   ``AttributeError``, and a violating stream's connection is not
   re-pooled.

Example counts follow the Hypothesis profile (``tests/conftest.py``):
100 by default, 5,000 under ``--hypothesis-profile=fuzz`` (the CI
``fuzz`` job); the two socket-bound properties run a tenth of that.
"""

import copy
import dataclasses
import io
import json
import socket
import struct
import types
import typing
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ensemble.api import (
    EnsembleRequest,
    PerturbationSpec,
    StabilityConfig,
    SummaryFrame,
)
from repro.ensemble.stability import BlowUp, StabilityReport
from repro.gnn import GNNConfig, MeshGNN, save_checkpoint
from repro.graph import build_full_graph
from repro.mesh import BoxMesh
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span
from repro.runtime.api import RolloutRequest, StreamRequest
from repro.runtime.remote import RemoteEngine
from repro.serve import InferenceService, ServeConfig, ServeServer
from repro.serve.protocol import (
    MAX_ARRAY_BYTES,
    ProtocolError,
    _RankMeta,
    _wire_fields,
    encode_array,
    from_wire,
    graph_upload_message,
    read_message,
    stream_message,
    summary_frame_message,
    take,
    to_wire,
    write_message,
)
from repro.serve.transport import TransportError

from tests.runtime.test_transport_edges import RogueServer

#: in-memory properties take the profile's example count; each example
#: of a socket-bound one is a real round trip, so they take a tenth
IN_MEMORY = settings(deadline=None)
SOCKETS = settings(
    deadline=None, max_examples=max(25, settings().max_examples // 10)
)

MESH = BoxMesh(2, 2, 1, p=1)
GRAPH = build_full_graph(MESH)
X0 = np.zeros((GRAPH.n_local, 3))
TINY = GNNConfig(hidden=4, n_message_passing=1, n_mlp_hidden=0)

ROLLOUT = RolloutRequest(
    "model/served", "graph/served", X0, n_steps=2, halo_mode="a2a",
    residual=True, precision="float32", deadline_s=30.0, trace_id="t0",
)
ENSEMBLE = EnsembleRequest(
    "model/served", "graph/served", X0, n_steps=2, deadline_s=30.0,
    trace_id="t0", n_members=3,
    perturbation=PerturbationSpec(seed=3, noise_scale=0.25,
                                  sweep=(1.0, 0.5, 2.0)),
    summaries=("mean", "quantiles"), quantiles=(0.1, 0.9),
    return_members=True,
    stability=StabilityConfig(max_energy_ratio=10.0, max_value=4.0),
    member_range=(0, 2),
)
REPORT = StabilityReport(
    energy=np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]]),
    divergence=np.array([0.0, 0.25]),
    blow_up=BlowUp(step=1, member=0, reason="non_finite",
                   energy_ratio=float("inf")),
    early_stopped=True,
)
SPAN = Span("t0", "queue", "server", 12.5, 0.25, "failed", {"frames": 3})

# -- generated JSON -----------------------------------------------------------

#: every JSON kind; integers stay small where a *well-typed* one would
#: be served (n_steps = 10**30 is a typed request for 10**30 steps —
#: admission caps are ROADMAP item 4's *Faults* clause, not typing)
KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 6),
    "float": st.floats(allow_nan=True, allow_infinity=True) | st.just(2.7),
    "string": st.text(max_size=6) | st.sampled_from(["3", "no", "yes"]),
    "list": st.lists(st.integers(-3, 6) | st.text(max_size=3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-3, 6),
                              max_size=2),
}
json_values = st.recursive(
    st.one_of(*(KINDS[k] for k in ("null", "bool", "int", "float", "string"))),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def paths(doc, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from paths(value, (*prefix, key))


@st.composite
def mutated(draw, doc):
    """``doc`` with one field replaced by any JSON value, deleted, or
    joined by an unknown sibling → ``(document, what was done)``."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(sorted(paths(doc), key=repr)))
    parent = reduce(getitem, path[:-1], doc)
    action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
    if action == "delete":
        del parent[path[-1]]
    elif action == "add" and isinstance(parent, dict):
        parent["x-" + draw(st.text(max_size=4))] = draw(json_values)
    else:
        parent[path[-1]] = draw(json_values)
    return doc, (action, path)


# -- 1. bytes -----------------------------------------------------------------


class CappedStream(io.BytesIO):
    """A byte stream that fails the test if the reader ever asks for
    more than the protocol's largest declared cap in one request."""

    def read(self, n=-1):
        assert 0 <= n <= MAX_ARRAY_BYTES, f"read({n}) beyond the caps"
        return super().read(n)


def frame_bytes(header, arrays=()):
    buf = io.BytesIO()
    write_message(buf, header, arrays)
    return buf.getvalue()


FRAMES = {
    "ping": frame_bytes({"op": "ping"}),
    "frame": frame_bytes({"type": "frame", "step": 1},
                         [np.arange(6.0).reshape(2, 3)]),
    "ensemble": frame_bytes(*stream_message("ensemble", ENSEMBLE)),
    "graph_upload": frame_bytes(*graph_upload_message("g", [GRAPH])),
}


def drain(data: bytes) -> list:
    """Read messages off ``data`` until EOF or the first violation;
    anything but a message, ``None`` or ProtocolError escapes."""
    stream = CappedStream(data)
    messages = []
    try:
        while (message := read_message(stream)) is not None:
            header, arrays = message
            assert isinstance(header, dict)
            assert all(isinstance(a, np.ndarray) for a in arrays)
            messages.append(message)
    except ProtocolError:
        pass
    return messages


@IN_MEMORY
@given(st.binary(max_size=96))
def test_arbitrary_bytes_are_a_message_eof_or_protocol_error(data):
    drain(data)


@IN_MEMORY
@given(st.data())
def test_one_mutated_byte_is_a_message_or_protocol_error(data):
    frame = bytearray(FRAMES[data.draw(st.sampled_from(sorted(FRAMES)))])
    frame[data.draw(st.integers(0, len(frame) - 1))] = data.draw(
        st.integers(0, 255)
    )
    tail = data.draw(st.sampled_from([b"", FRAMES["ping"]]))
    drain(bytes(frame) + tail)


@IN_MEMORY
@given(st.dictionaries(st.text(max_size=4), json_values, max_size=3),
       json_values, st.integers(0, 2))
def test_any_json_header_is_read_or_refused_and_the_count_is_an_integer(
    header, count, n_blobs
):
    """Well-framed, arbitrary JSON inside: the ``arrays`` count is
    honoured iff it is a real integer the stream can back (a boolean
    used to read one blob)."""
    payload = json.dumps({**header, "arrays": count}).encode()
    blob = encode_array(np.zeros(2))
    data = struct.pack(">I", len(payload)) + payload
    data += n_blobs * (struct.pack(">Q", len(blob)) + blob)
    backed = type(count) is int and 0 <= count <= n_blobs
    try:
        message = read_message(CappedStream(data))
    except ProtocolError:
        assert not backed, count
    else:
        assert backed and len(message[1]) == count
        assert message[0].keys() == header.keys() - {"arrays"}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_every_truncation_is_eof_or_protocol_error(name):
    """Cut at every prefix: clean EOF only at the boundary, the message
    only when whole, ``truncated`` in between."""
    frame = FRAMES[name]
    assert drain(b"") == [] and len(drain(frame)) == 1
    for cut in range(1, len(frame)):
        with pytest.raises(ProtocolError, match="truncated"):
            read_message(CappedStream(frame[:cut]))


# -- 2. the type matrix -------------------------------------------------------


def wire_fields(cls, doc, where):
    """``(dotted path, key path, declared type)`` of every wire field
    of ``cls`` reachable in ``doc``, nested records included."""
    for name, (tp, _) in _wire_fields(cls).items():
        yield f"{where}.{name}", (name,), tp
        inner = next(
            (a for a in (tp, *typing.get_args(tp))
             if dataclasses.is_dataclass(a)), None,
        )
        if inner is not None and doc[name] is not None:
            for dotted, keys, sub in wire_fields(
                inner, doc[name], f"{where}.{name}"
            ):
                yield dotted, (name, *keys), sub


def annotated_kinds(tp) -> set:
    """The JSON kinds the declared type admits — the codec's contract,
    restated independently of its implementation."""
    if typing.get_origin(tp) is types.UnionType:
        inner, _ = typing.get_args(tp)
        return annotated_kinds(inner) | {"null"}
    if tp is float:
        return {"int", "float"}
    scalar = {bool: "bool", int: "int", str: "string", dict: "object"}
    if tp in scalar:
        return {scalar[tp]}
    if dataclasses.is_dataclass(tp):
        return {"object"}
    assert typing.get_origin(tp) in (tuple, list) or tp is np.ndarray, tp
    return {"list"}


RECORDS = [
    (cls, to_wire(record))
    for cls, record in [
        (RolloutRequest, ROLLOUT), (EnsembleRequest, ENSEMBLE), (Span, SPAN),
        (StabilityReport, REPORT), (GNNConfig, TINY),
        (_RankMeta, _RankMeta(0, 2, 1, [1], [4])),
    ]
]
MATRIX = [
    (cls, doc, dotted, keys, tp)
    for cls, doc in RECORDS
    for dotted, keys, tp in wire_fields(cls, doc, cls.__name__)
]


def decode(cls, doc):
    local = {"x0": X0} if issubclass(cls, StreamRequest) else {}
    return from_wire(cls, doc, **local)


def test_the_matrix_reaches_nested_fields_and_the_base_documents_decode():
    dotted = {m[2] for m in MATRIX}
    assert {
        "RolloutRequest.n_steps", "EnsembleRequest.perturbation.sweep",
        "EnsembleRequest.stability.early_stop", "EnsembleRequest.member_range",
        "StabilityReport.energy", "StabilityReport.blow_up.energy_ratio",
        "Span.attrs", "_RankMeta.neighbors",
    } <= dotted
    # what never rides the JSON is not a wire field
    assert not {d for d in dotted if d.endswith((".x0", ".request_id"))}
    for cls, doc in RECORDS:
        assert to_wire(decode(cls, doc)) == doc


@IN_MEMORY
@given(st.data())
def test_a_field_accepts_exactly_its_annotated_json_kinds(data):
    cls, doc, dotted, keys, tp = data.draw(st.sampled_from(MATRIX))
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    own = reduce(getitem, keys, doc)
    fits = kind in annotated_kinds(tp)
    if fits and kind in ("list", "object") and isinstance(own, (list, dict)):
        value = own  # a container of the right kind: its items are typed too
    else:
        value = data.draw(KINDS[kind])
    doc = copy.deepcopy(doc)
    reduce(getitem, keys[:-1], doc)[keys[-1]] = value
    try:
        decode(cls, doc)
    except ValueError as exc:
        # the right kind may still break a domain rule (n_steps = 0);
        # the wrong kind is refused by name, whatever its value
        assert ("must be" in str(exc) and dotted in str(exc)) == (not fits), exc
    else:
        assert fits, f"{dotted} accepted a JSON {kind}: {value!r}"


@pytest.mark.parametrize(
    "cls, doc", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS]
)
def test_unknown_and_missing_fields_are_refused_by_name(cls, doc):
    with pytest.raises(ValueError, match="unknown fields .*'bogus'"):
        decode(cls, {**doc, "bogus": 1})
    decode(cls, {**doc, "op": "anything"})  # the envelope key is not a field
    required = [n for n, (_, req) in _wire_fields(cls).items() if req]
    for name in required:
        short = {k: v for k, v in doc.items() if k != name}
        with pytest.raises(ValueError, match=f"missing required field '{name}'"):
            decode(cls, short)


def test_a_number_no_float_can_hold_is_refused_not_overflowed():
    with pytest.raises(ValueError, match="deadline_s must be float"):
        decode(RolloutRequest, {**RECORDS[0][1], "deadline_s": 10 ** 400})
    with pytest.raises(ValueError, match="k must be float"):
        take({"k": 10 ** 400}, "k", float)


# -- 3. a live server ---------------------------------------------------------

#: every code a request can legitimately be answered with — ``internal``
#: is the one a *typed* stack must never need
TYPED_CODES = {
    "bad_request", "model_not_found", "graph_not_found", "incompatible",
    "queue_full", "deadline_expired",
}
#: ops the server does not speak — ``capabilities`` among them: an
#: engine declares its record, it never asks the peer for one
UNKNOWN_OPS = ("capabilities", "stats", "train", "")


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    root = tmp_path_factory.mktemp("wire-fuzz")
    model = MeshGNN(TINY)
    save_checkpoint(model, root / "model.npz")
    with InferenceService(ServeConfig(max_batch_size=2, max_wait_s=0.0)) as svc:
        svc.register_model("model/served", model)
        svc.register_graph("graph/served", [GRAPH])
        with ServeServer(svc) as server:
            yield server, root


def exchange(server, header, arrays) -> list:
    """One message in; the reply headers up to the terminal one out."""
    replies = []
    sock = socket.create_connection(server.address, timeout=30.0)
    with sock, sock.makefile("rwb") as stream:
        write_message(stream, header, arrays)
        while True:
            message = read_message(stream)
            assert message is not None, f"hung up after {replies}"
            replies.append(message[0])
            if message[0].get("type") not in ("frame", "summary"):
                return replies


def request_messages(root):
    """The well-formed messages the mutations start from."""
    upload, upload_arrays = graph_upload_message("fuzz/uploaded", [GRAPH])
    return [
        (*stream_message("rollout", ROLLOUT), "done"),
        (*stream_message("ensemble", ENSEMBLE), "done"),
        ({"op": "register_checkpoint", "name": "fuzz/ckpt",
          "path": str(root / "model.npz"), "expect_config": to_wire(TINY)},
         [], "ok"),
        ({"op": "register_graph_dir", "key": "fuzz/dir", "path": str(root)},
         [], "ok"),
        (upload, upload_arrays, "ok"),
        ({"op": "get_trace", "trace_id": "t0"}, [], "trace"),
    ]


ARRAYS = st.sampled_from([
    None, None, None,               # leave the message's arrays alone
    [],                             # none at all
    [X0, X0],                       # one too many
    [X0[:-1]],                      # wrong node count
    [X0.ravel()],                   # wrong rank
    [np.array([["a", "b", "c"]] * len(X0))],  # not numbers
    [X0.astype(np.int32)],
])


@SOCKETS
@given(st.data())
def test_a_mutated_request_gets_a_typed_answer_and_the_server_lives(live, data):
    server, root = live
    header, arrays, terminal = data.draw(
        st.sampled_from(request_messages(root))
    )
    header, what = data.draw(mutated(header))
    swapped = data.draw(ARRAYS)
    if swapped is not None:
        arrays = swapped
    # a checkpoint registered by an earlier example must not turn this
    # one into "already registered": names are per-example
    if header.get("name") == "fuzz/ckpt":
        header["name"] = f"fuzz/ckpt-{data.draw(st.uuids())}"
    *frames, last = exchange(server, header, arrays)
    if last.get("type") == "error":
        assert last["code"] in TYPED_CODES, (what, last)
    else:
        assert last["type"] == terminal, (what, last)
        if terminal == "done":
            assert last["n_frames"] == len(frames)
    assert exchange(server, {"op": "ping"}, [])[-1] == {"type": "pong"}


@pytest.mark.parametrize("op", UNKNOWN_OPS)
def test_an_unknown_op_is_bad_request_and_the_server_lives(live, op):
    server, _ = live
    (reply,) = exchange(server, {"op": op}, [])
    assert reply["type"] == "error" and reply["code"] == "bad_request"
    assert f"unknown op {op!r}" in reply["message"]
    assert exchange(server, {"op": "ping"}, [])[-1] == {"type": "pong"}


# -- 4. a live client ---------------------------------------------------------

SNAPSHOT_SOURCE = MetricsRegistry()
SNAPSHOT_SOURCE.counter("requests", "served").inc(3, model="m")
SNAPSHOT_SOURCE.gauge("depth", "queue depth", merge="max").set(2)
SNAPSHOT_SOURCE.histogram("wait", "queue wait", bounds=(0.1, 1.0)).observe(0.5)

STATE = np.zeros((4, 3))
SUMMARY = summary_frame_message(SummaryFrame(
    step=0, n_members=2, summaries={"mean": STATE}, energy=np.zeros(3),
    divergence=0.5, members=(STATE, STATE),
))

#: reply kind -> (the op it answers, its well-formed script, the call
#: that reads it); a script is a list of headers or (header, arrays)
REPLIES = {
    "models": ("models", [{"type": "models", "names": ["a", "b"]}],
               lambda e: e.model_names()),
    "graph_keys": ("graph_keys", [{"type": "graph_keys", "keys": ["g"]}],
                   lambda e: e.graph_keys()),
    "metrics": ("metrics",
                [{"type": "metrics", "snapshot": SNAPSHOT_SOURCE.snapshot()}],
                lambda e: e.metrics_registry()),
    "trace": ("get_trace", [{"type": "trace", "spans": [to_wire(SPAN)]}],
              lambda e: e.get_trace("t0")),
    "frame": ("rollout",
              [({"type": "frame", "step": 0}, [STATE]),
               ({"type": "frame", "step": 1}, [STATE]),
               {"type": "done", "n_frames": 2, "metrics": {"queue_s": 0.1}}],
              lambda e: e.rollout(ROLLOUT)),
    "summary": ("ensemble",
                [SUMMARY, {"type": "done", "n_frames": 1, "metrics": None,
                           "stability": to_wire(REPORT)}],
                lambda e: e.ensemble(ENSEMBLE)),
}
REPLIES["done"] = REPLIES["summary"]  # the mutation lands on `done` only


@pytest.fixture(scope="module")
def rogue():
    server = RogueServer()
    yield server
    server.close()


@SOCKETS
@given(st.data())
def test_a_mutated_reply_is_a_transport_error_or_the_documented_degrade(
    rogue, data
):
    # a dead double turns every later example into a 10 s timeout that
    # passes as a TransportError: fail instead
    assert rogue._thread.is_alive(), "the rogue server thread died"
    kind = data.draw(st.sampled_from(sorted(REPLIES)))
    op, script, call = REPLIES[kind]
    script = list(script)
    index = len(script) - 1 if kind == "done" else data.draw(
        st.integers(0, len(script) - 1)
    )
    header, arrays = (
        script[index] if isinstance(script[index], tuple)
        else (script[index], [])
    )
    header, what = data.draw(mutated(header))
    if arrays and data.draw(st.booleans()):
        arrays = arrays[:-1]  # announce arrays the message does not carry
    script[index] = (header, arrays)
    rogue.replies = {op: script}
    host, _, port = rogue.endpoint.partition(":")
    engine = RemoteEngine(host, int(port), request_timeout_s=10.0)
    try:
        call(engine)  # anything but TransportError escaping fails the test
    except TransportError:
        assert kind != "trace", f"get_trace degrades, never raises: {what}"
        if op in ("rollout", "ensemble"):
            # a stream that broke the protocol keeps no connection
            assert engine.pool_stats().idle == 0, what
    finally:
        engine.close()
