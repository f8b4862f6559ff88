"""Wire-format tests: framing, array round-trips, malformed streams,
graph upload."""

import dataclasses
import io
import struct

import numpy as np
import pytest

from repro.ensemble.api import EnsembleRequest
from repro.runtime.api import RolloutRequest, StreamRequest
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_ARRAY_BYTES,
    MAX_ARRAYS,
    MAX_HEADER_BYTES,
    ProtocolError,
    decode_array,
    encode_array,
    graph_upload_message,
    parse_graph_upload,
    read_message,
    write_message,
)


def roundtrip(header, arrays=()):
    buf = io.BytesIO()
    write_message(buf, header, arrays)
    buf.seek(0)
    return read_message(buf)


class TestMessageRoundtrip:
    def test_header_only(self):
        header, arrays = roundtrip({"op": "ping", "n": 3, "flag": True})
        assert header == {"op": "ping", "n": 3, "flag": True}
        assert arrays == []

    def test_header_with_arrays(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        b = np.array([[1, 2], [3, 4]], dtype=np.int64)
        header, arrays = roundtrip({"op": "rollout"}, [a, b])
        assert header == {"op": "rollout"}
        assert len(arrays) == 2
        np.testing.assert_array_equal(arrays[0], a)
        np.testing.assert_array_equal(arrays[1], b)
        assert arrays[0].dtype == np.float64 and arrays[1].dtype == np.int64

    def test_float64_bitwise_exact(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 3))  # full-precision doubles
        _, (y,) = roundtrip({}, [x])
        assert y.dtype == x.dtype
        assert np.array_equal(
            x.view(np.uint64), y.view(np.uint64)
        ), "payload must survive the wire bit for bit"

    def test_empty_and_zero_size_arrays(self):
        _, arrays = roundtrip({"op": "x"}, [np.empty((0, 3))])
        assert arrays[0].shape == (0, 3)

    def test_multiple_messages_one_stream(self):
        buf = io.BytesIO()
        write_message(buf, {"i": 0})
        write_message(buf, {"i": 1}, [np.ones(2)])
        write_message(buf, {"i": 2})
        buf.seek(0)
        seen = []
        while (msg := read_message(buf)) is not None:
            seen.append(msg[0]["i"])
        assert seen == [0, 1, 2]

    def test_clean_eof_returns_none(self):
        assert read_message(io.BytesIO()) is None

    def test_canonical_encoding_is_deterministic(self):
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            write_message(buf, {"b": 1, "a": 2}, [np.arange(3.0)])
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


class TestArrayCodec:
    def test_roundtrip_preserves_noncontiguous(self):
        x = np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2]
        y = decode_array(encode_array(x))
        np.testing.assert_array_equal(x, y)

    def test_garbage_blob_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="npy"):
            decode_array(b"not an npy payload")


class TestMalformedStreams:
    def test_truncated_header(self):
        buf = io.BytesIO()
        write_message(buf, {"op": "ping"})
        data = buf.getvalue()
        with pytest.raises(ProtocolError, match="truncated"):
            read_message(io.BytesIO(data[: len(data) - 2]))

    def test_truncated_length_prefix(self):
        with pytest.raises(ProtocolError, match="truncated"):
            read_message(io.BytesIO(b"\x00\x00"))

    def test_truncated_array_blob(self):
        buf = io.BytesIO()
        write_message(buf, {"op": "x"}, [np.arange(100.0)])
        data = buf.getvalue()
        with pytest.raises(ProtocolError, match="truncated"):
            read_message(io.BytesIO(data[:-10]))

    def test_header_not_json(self):
        payload = b"\xff\xfenot json"
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            read_message(io.BytesIO(framed))

    def test_header_not_object(self):
        payload = b"[1,2,3]"
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="JSON object"):
            read_message(io.BytesIO(framed))

    def test_oversized_header_rejected_before_allocation(self):
        framed = struct.pack(">I", MAX_HEADER_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds bound"):
            read_message(io.BytesIO(framed + b"x" * 16))

    def test_oversized_array_frame_rejected_before_allocation(self):
        """A peer claiming a blob beyond MAX_ARRAY_BYTES must fail fast
        — never attempt the allocation (the cluster relies on servers
        surviving garbage frames as bad_request, not OOM)."""
        payload = b'{"arrays":1}'
        framed = (
            struct.pack(">I", len(payload))
            + payload
            + struct.pack(">Q", MAX_ARRAY_BYTES + 1)
        )
        with pytest.raises(ProtocolError, match="exceeds bound"):
            read_message(io.BytesIO(framed + b"x" * 64))

    def test_half_close_mid_frame_is_truncation_not_eof(self):
        """EOF is clean only at a message boundary; a peer hanging up
        halfway through an array blob is a ProtocolError."""
        buf = io.BytesIO()
        write_message(buf, {"type": "frame", "step": 1}, [np.ones((8, 3))])
        data = buf.getvalue()
        for cut in (len(data) - 1, len(data) // 2, 5):
            with pytest.raises(ProtocolError, match="truncated"):
                read_message(io.BytesIO(data[:cut]))

    def test_negative_array_count_rejected(self):
        payload = b'{"arrays":-1}'
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="array count"):
            read_message(io.BytesIO(framed))


    @pytest.mark.parametrize("count", ["true", "1.0", '"1"', "null", "[1]"])
    def test_non_integer_array_count_rejected(self, count):
        """``isinstance(True, int)``: a boolean used to read one blob."""
        payload = b'{"arrays":%s}' % count.encode()
        framed = struct.pack(">I", len(payload)) + payload
        blob = encode_array(np.zeros(2))
        with pytest.raises(ProtocolError, match="array count"):
            read_message(io.BytesIO(
                framed + struct.pack(">Q", len(blob)) + blob
            ))

    def test_array_count_cap_enforced_before_any_blob_is_read(self):
        """Each blob is bounded by MAX_ARRAY_BYTES; their number is
        bounded too, and the refusal needs no byte past the header."""
        payload = b'{"arrays":%d}' % (MAX_ARRAYS + 1)
        framed = struct.pack(">I", len(payload)) + payload
        stream = io.BytesIO(framed)
        with pytest.raises(ProtocolError, match="array count"):
            read_message(stream)
        assert stream.tell() == len(framed)
        # ...and exactly MAX_ARRAYS is a count, not a violation
        payload = b'{"arrays":%d}' % MAX_ARRAYS
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="truncated"):
            read_message(io.BytesIO(framed))

    def test_writer_refuses_more_than_the_array_cap(self):
        buf = io.BytesIO()
        with pytest.raises(ProtocolError, match="too many arrays"):
            write_message(buf, {}, [np.zeros(0)] * (MAX_ARRAYS + 1))
        assert buf.getvalue() == b""

    @staticmethod
    def npy(header: bytes, data: bytes = b"") -> bytes:
        """A version-1.0 ``.npy`` blob with a hand-written header."""
        header = header.ljust(-(len(header) + 11) % 64 + len(header)) + b"\n"
        return (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header))
                + header + data)

    @pytest.mark.parametrize("blob", [
        b"",                                    # np.load: EOFError
        b"PK\x03\x04 not a zip",                # np.load: BadZipFile
        b"PK\x05\x06" + b"\x00" * 18,           # np.load: an NpzFile object
        # 8 TiB announced, none sent: MemoryError inside numpy
        npy(b"{'descr': '<f8', 'fortran_order': False, "
            b"'shape': (1099511627776,), }"),
        # a dimension no C long holds: OverflowError inside numpy
        npy(b"{'descr': '<f8', 'fortran_order': False, "
            b"'shape': (1000000000000000000000000000000,), }"),
        # unbalanced header: tokenize.TokenError out of numpy's fallback
        npy(b"{'descr': '<f8', 'fortran_order': False, 'shape': (2,), "),
        npy(b"{'descr': '|O', 'fortran_order': False, 'shape': (1,), }"),
    ])
    def test_blob_that_is_not_npy_is_protocol_error(self, blob):
        with pytest.raises(ProtocolError, match="npy"):
            decode_array(blob)

    @pytest.mark.parametrize("payload", [
        b'{"a":' + b"[" * 100_000,              # RecursionError in json
        b'{"a":' + b"1" * 5_000 + b"}",         # int digit limit: ValueError
    ])
    def test_header_json_the_interpreter_refuses(self, payload):
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_message(io.BytesIO(framed))


class TestTypedRequestMessages:
    """The protocol speaks the runtime layer's shared dataclasses."""

    def test_rollout_request_round_trips(self):
        request = RolloutRequest(model="m", graph="g",
                                 x0=np.zeros((4, 3)), n_steps=2,
                                 halo_mode="a2a", residual=True,
                                 deadline_s=0.5)
        header, arrays = protocol.stream_message("rollout", request)
        parsed = protocol.parse_stream_message(RolloutRequest, header, arrays)
        assert (parsed.model, parsed.graph, parsed.n_steps) == ("m", "g", 2)
        assert parsed.halo_mode == "a2a" and parsed.residual
        assert parsed.deadline_s == 0.5
        np.testing.assert_array_equal(parsed.x0, request.x0)
        # server-side identity is re-stamped, not trusted from the wire
        assert parsed.request_id != request.request_id

    def test_canonical_request_headers_are_pinned_byte_for_byte(self):
        """The codec replaced the hand-written builders; a peer of the
        previous revision must see the very same bytes. These strings
        were produced by that revision's ``rollout_message`` /
        ``ensemble_message`` for the same requests."""
        from repro.ensemble.api import PerturbationSpec, StabilityConfig

        shared = dict(model="tgv-surrogate", graph="tgv-box",
                      x0=np.zeros((4, 3)), n_steps=7, residual=True,
                      precision="float32", trace_id="00ff00ff00ff00ff")
        rollout = RolloutRequest(**shared, halo_mode="a2a", deadline_s=0.5)
        ensemble = EnsembleRequest(
            **shared, halo_mode="n-a2a", deadline_s=2.5, n_members=4,
            perturbation=PerturbationSpec(seed=3, noise_scale=0.25,
                                          sweep=(1.0, 0.5, 2.0, 1.5)),
            summaries=("mean", "quantiles", "energy"),
            quantiles=(0.1, 0.5, 0.9), return_members=True,
            stability=StabilityConfig(max_energy_ratio=10.0, max_value=4.0,
                                      early_stop=False),
            member_range=(1, 3),
        )
        bare = dict(model="m", graph="g", x0=np.zeros((4, 3)), n_steps=1,
                    trace_id="t")
        golden = [
            ("rollout", rollout,
             b'{"arrays":1,"deadline_s":0.5,"graph":"tgv-box",'
             b'"halo_mode":"a2a","model":"tgv-surrogate","n_steps":7,'
             b'"op":"rollout","precision":"float32","residual":true,'
             b'"trace_id":"00ff00ff00ff00ff"}'),
            ("ensemble", ensemble,
             b'{"arrays":1,"deadline_s":2.5,"graph":"tgv-box",'
             b'"halo_mode":"n-a2a","member_range":[1,3],'
             b'"model":"tgv-surrogate","n_members":4,"n_steps":7,'
             b'"op":"ensemble","perturbation":{"noise_scale":0.25,"seed":3,'
             b'"sweep":[1.0,0.5,2.0,1.5]},"precision":"float32",'
             b'"quantiles":[0.1,0.5,0.9],"residual":true,'
             b'"return_members":true,"stability":{"early_stop":false,'
             b'"max_energy_ratio":10.0,"max_value":4.0},'
             b'"summaries":["mean","quantiles","energy"],'
             b'"trace_id":"00ff00ff00ff00ff"}'),
            ("rollout", RolloutRequest(**bare),
             b'{"arrays":1,"deadline_s":null,"graph":"g","halo_mode":null,'
             b'"model":"m","n_steps":1,"op":"rollout","precision":"float64",'
             b'"residual":false,"trace_id":"t"}'),
            ("ensemble", EnsembleRequest(**bare, n_members=2),
             b'{"arrays":1,"deadline_s":null,"graph":"g","halo_mode":null,'
             b'"member_range":null,"model":"m","n_members":2,"n_steps":1,'
             b'"op":"ensemble","perturbation":{"noise_scale":0.0,"seed":0,'
             b'"sweep":[]},"precision":"float64","quantiles":[0.1,0.5,0.9],'
             b'"residual":false,"return_members":false,"stability":null,'
             b'"summaries":["mean","variance","min","max"],"trace_id":"t"}'),
        ]
        for op, request, expected in golden:
            buf = io.BytesIO()
            write_message(buf, *protocol.stream_message(op, request))
            framed = buf.getvalue()
            (length,) = struct.unpack(">I", framed[:4])
            assert framed[4:4 + length] == expected

    def test_missing_field_is_value_error(self):
        with pytest.raises(ValueError, match="model"):
            protocol.parse_stream_message(
                RolloutRequest, {"op": "rollout", "graph": "g", "n_steps": 1},
                [np.zeros((4, 3))],
            )

    def test_wrong_typed_field_is_value_error_not_internal(self):
        """n_steps: null must classify as bad_request, not internal."""
        with pytest.raises(ValueError, match="n_steps must be int") as exc_info:
            protocol.parse_stream_message(
                RolloutRequest,
                {"op": "rollout", "model": "m", "graph": "g",
                 "n_steps": None}, [np.zeros((4, 3))],
            )
        assert protocol.error_code(exc_info.value) == "bad_request"

    def test_wrong_array_count_is_value_error(self):
        with pytest.raises(ValueError, match="exactly one array"):
            protocol.parse_stream_message(
                RolloutRequest,
                {"op": "rollout", "model": "m", "graph": "g", "n_steps": 1}, [],
            )


class TestSharedFieldsRoundTrip:
    """Every field the streamed request kinds share crosses the wire
    the same way for both kinds (or, for the process-local identity,
    is re-stamped for both)."""

    KINDS = {
        "rollout": (RolloutRequest, {}),
        "ensemble": (EnsembleRequest, {"n_members": 3}),
    }
    REQUIRED = dict(model="m", graph="g", x0=np.zeros((4, 3)), n_steps=1)
    #: a non-default value for every shared field; a field added to
    #: StreamRequest without an entry here fails the test below
    VALUES = dict(
        model="other", graph="g4", x0=np.arange(12.0).reshape(4, 3) / 7,
        n_steps=5, halo_mode="a2a", residual=True, precision="float32",
        deadline_s=0.5, trace_id="trace-abc", request_id=10 ** 9,
        submitted_at=-1.0,
    )
    STAMPED = ("request_id", "submitted_at")  # never trusted from the wire
    SHARED = [f.name for f in dataclasses.fields(StreamRequest)]

    def through_the_wire(self, kind, **fields):
        cls, extra = self.KINDS[kind]
        request = cls(**{**self.REQUIRED, **extra, **fields})
        message = roundtrip(*protocol.stream_message(kind, request))
        return request, protocol.parse_stream_message(cls, *message)

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("name", SHARED)
    def test_shared_field_round_trips(self, kind, name):
        request, parsed = self.through_the_wire(
            kind, **{name: self.VALUES[name]}
        )
        if name in self.STAMPED:
            assert getattr(parsed, name) != getattr(request, name)
        elif name == "x0":
            assert parsed.x0.dtype == np.float64
            assert parsed.x0.tobytes() == request.x0.tobytes()
        else:
            assert getattr(parsed, name) == self.VALUES[name]

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_unset_fields_stay_unset(self, kind):
        request, parsed = self.through_the_wire(kind)
        assert parsed.halo_mode is None and parsed.deadline_s is None
        assert (parsed.residual, parsed.precision) == (False, "float64")
        assert parsed.trace_id == request.trace_id
        assert parsed.key == request.key


class TestGraphUploadMessages:
    """The register op: graph arrays ship as .npy frames."""

    def test_single_rank_round_trip_is_exact(self, full_graph):
        header, arrays = graph_upload_message("g", [full_graph])
        assert header["op"] == "register_graph"
        # ...and survives the actual framing layer
        buf = io.BytesIO()
        write_message(buf, header, arrays)
        buf.seek(0)
        wire_header, wire_arrays = read_message(buf)
        wire_header.pop("arrays", None)
        key, graphs = parse_graph_upload(wire_header, wire_arrays)
        assert key == "g" and len(graphs) == 1
        g = graphs[0]
        np.testing.assert_array_equal(g.global_ids, full_graph.global_ids)
        np.testing.assert_array_equal(g.pos, full_graph.pos)
        np.testing.assert_array_equal(g.edge_index, full_graph.edge_index)
        assert g.pos.dtype == full_graph.pos.dtype

    def test_multirank_round_trip_preserves_halo_plans(self, dist_graph):
        header, arrays = graph_upload_message("g4", dist_graph.locals)
        _, graphs = parse_graph_upload(header, arrays)
        assert len(graphs) == 4
        for original, parsed in zip(dist_graph.locals, graphs):
            spec_a, spec_b = original.halo.spec, parsed.halo.spec
            assert spec_a.neighbors == spec_b.neighbors
            assert spec_a.recv_counts == spec_b.recv_counts
            assert spec_a.pad_count == spec_b.pad_count
            for n in spec_a.neighbors:
                np.testing.assert_array_equal(
                    spec_a.send_indices[n], spec_b.send_indices[n]
                )
            np.testing.assert_array_equal(
                original.halo.halo_to_local, parsed.halo.halo_to_local
            )
            parsed.validate()

    def test_array_count_mismatch_is_value_error(self, full_graph):
        header, arrays = graph_upload_message("g", [full_graph])
        with pytest.raises(ValueError, match="arrays"):
            parse_graph_upload(header, arrays[:-1] if arrays else [])

    def test_noncontiguous_ranks_rejected(self, dist_graph):
        header, arrays = graph_upload_message(
            "g", [dist_graph.locals[0], dist_graph.locals[2]]
        )
        with pytest.raises(ValueError):
            parse_graph_upload(header, arrays)

    def test_invalid_graph_payload_rejected(self, full_graph):
        """A payload that fails the loader's consistency validation
        (edge pointing at a nonexistent node) maps to bad_request."""
        header, arrays = graph_upload_message("g", [full_graph])
        bad = [a.copy() for a in arrays]
        bad[2] = bad[2].copy()
        bad[2][0, 0] = full_graph.n_local + 5  # edge_index out of range
        with pytest.raises(ValueError, match="malformed graph upload"):
            parse_graph_upload(header, bad)

    def test_empty_upload_rejected(self):
        with pytest.raises(ValueError, match="no rank payloads"):
            parse_graph_upload({"key": "g", "ranks": []}, [])

    @pytest.mark.parametrize("ranks", [
        [42],                       # rank entry is not a dict
        [{"neighbors": 3}],         # neighbors is not a list
        [{"neighbors": [], "size": "two"}],  # missing/mistyped fields
    ])
    def test_type_confused_metadata_maps_to_bad_request(self, ranks):
        """Garbage rank metadata must classify as the peer's bad
        request, never as an internal server failure."""
        from repro.serve.protocol import error_code

        with pytest.raises(ValueError) as exc_info:
            parse_graph_upload({"key": "g", "ranks": ranks}, [])
        assert error_code(exc_info.value) == "bad_request"
