"""Wire protocol of the out-of-process serving transport.

A *message* is one length-prefixed JSON header followed by zero or more
length-prefixed ``.npy`` blobs (one per array the header announces):

.. code-block:: text

    u32  header_len          (big-endian)
    ...  header JSON (utf-8) carrying "arrays": <count>
    --- repeated <count> times ---
    u64  blob_len            (big-endian)
    ...  npy bytes (numpy .npy format, allow_pickle=False)

JSON carries the small, human-auditable part (operation, asset names,
flags, error codes); arrays travel in the ``.npy`` binary format so
dtype/shape round-trip exactly — a ``float64`` state that crosses the
socket comes back bitwise identical, which the transport consistency
tests assert end-to-end.

The module is transport-agnostic: readers/writers operate on binary
file-like objects (``socket.makefile("rwb")``, ``BytesIO``, pipes), so
the framing is unit-testable without sockets.

Above the framing sits ONE codec, and the schema of a wire record *is*
its dataclass: field names, annotations, defaults and ``__post_init__``
domain rules (``field(metadata={"wire": False})`` marks what never
rides the JSON). :func:`to_wire` encodes a record, :func:`from_wire`
decodes one, :func:`take` reads one ad-hoc header or reply field; all
three type values through :func:`_coerce`, which is strict about JSON
kinds — a boolean is never an integer, ``2.7`` / ``"3"`` / ``Infinity``
never an ``int``, ``"no"`` never a ``bool`` — and names the offending
field by dotted path in the :class:`ValueError` it raises
(``bad_request`` on the wire; a typed ``TransportError`` when the
client reads a reply). :func:`stream_message` /
:func:`parse_stream_message` carry every streamed request kind, and
:func:`error_code` / :func:`raise_for_code` are two reads of one
(exception type, code) table, so a failure raised by the remote engine
is the *same type* the in-process engine raises.

Thread safety: the functions here are pure stream transformations and
hold no state; concurrent use on *distinct* streams is safe, and one
stream must not be shared by concurrent readers or writers.
Determinism: encoding is canonical (sorted-key compact JSON, ``.npy``
v1 format), so the same header + arrays always produce the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import struct
import types
import typing
from typing import BinaryIO, Sequence

import numpy as np
from numpy.lib import format as npy_format

#: Sanity bound on the JSON header frame — a peer speaking a different
#: protocol (or random garbage) fails fast instead of allocating.
MAX_HEADER_BYTES = 1 << 20
#: Sanity bound on one array blob (covers far-beyond-paper-scale states).
MAX_ARRAY_BYTES = 1 << 32
#: Sanity bound on how many blobs one message may announce (the largest
#: real message — a graph upload — carries a few arrays per rank).
MAX_ARRAYS = 1 << 16

_HEADER_LEN = struct.Struct(">I")
_BLOB_LEN = struct.Struct(">Q")


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not parse as a protocol message."""


# -- typed status codes (server -> client error messages) --------------------

# (``queue_full`` / ``deadline_expired`` are declared where they are
# raised: ``code`` on the :mod:`repro.serve.admission` rejections)
#: No model registered under the requested name.
ERR_MODEL_NOT_FOUND = "model_not_found"
#: No graph registered under the requested key.
ERR_GRAPH_NOT_FOUND = "graph_not_found"
#: Model/graph/request shapes or configs disagree.
ERR_INCOMPATIBLE = "incompatible"
#: Request header failed validation before reaching the service.
ERR_BAD_REQUEST = "bad_request"
#: Anything else that escaped the worker (reported with its repr).
ERR_INTERNAL = "internal"


def _read_exact(stream: BinaryIO, n: int, *, eof_ok: bool = False) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if got == 0 and eof_ok:
                return None
            raise ProtocolError(
                f"stream truncated: wanted {n} bytes, got {got}"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def encode_array(array: np.ndarray) -> bytes:
    """Serialize one array to ``.npy`` bytes (dtype/shape-exact)."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array), allow_pickle=False)
    return buf.getvalue()


def decode_array(blob: bytes) -> np.ndarray:
    """Invert :func:`encode_array`; rejects pickled payloads.

    Reads the ``.npy`` format and nothing else (``np.load`` would also
    sniff zip archives and hand back a non-array). The bytes are a
    peer's and the parser is numpy's: whatever it raises on them —
    ``ValueError``, a ``tokenize.TokenError`` or ``SyntaxError`` out of
    its header fallback, ``MemoryError`` for a header announcing more
    elements than memory holds — is one thing, a blob that does not
    parse.
    """
    try:
        return npy_format.read_array(io.BytesIO(blob), allow_pickle=False)
    except Exception as exc:  # noqa: BLE001 - see docstring
        raise ProtocolError(
            f"array blob does not parse as .npy: {exc!r}"
        ) from None


def write_message(
    stream: BinaryIO, header: dict, arrays: Sequence[np.ndarray] = ()
) -> None:
    """Frame and write one message (header JSON + array blobs), then flush."""
    if len(arrays) > MAX_ARRAYS:
        raise ProtocolError(f"too many arrays ({len(arrays)})")
    body = dict(header)
    body["arrays"] = len(arrays)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(payload)} bytes)")
    parts = [_HEADER_LEN.pack(len(payload)), payload]
    for array in arrays:
        blob = encode_array(array)
        if len(blob) > MAX_ARRAY_BYTES:
            raise ProtocolError(f"array too large ({len(blob)} bytes)")
        parts += (_BLOB_LEN.pack(len(blob)), blob)
    # one write: on an unbuffered socket file every write is a send (and
    # a segment, under TCP_NODELAY), and every send a GIL hand-off
    stream.write(b"".join(parts))
    stream.flush()


# -- the codec: a wire record's schema is its dataclass ----------------------


@functools.cache
def _wire_fields(cls) -> dict:
    """``{name: (declared type, required)}`` of the fields of record
    ``cls`` that ride the JSON. Resolved once per class: evaluating the
    annotations costs hundreds of microseconds, a request has none to
    spare."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (
            hints[f.name],
            f.default is f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
        if f.metadata.get("wire", True)
    }


def _coerce(value, tp, where: str):
    """Turn a parsed-JSON ``value`` into the declared type ``tp`` or
    raise a :class:`ValueError` naming the field (``where`` is its
    dotted path) — written once, for every record on both sides of the
    socket.

    Strict about JSON kinds: ``bool`` / ``str`` / ``dict`` / ``int``
    take exactly themselves (so a boolean, a float — hence ``Infinity``
    or ``2.7`` — or a numeric string is never an ``int``); ``float``
    takes any non-boolean number (non-finite allowed: finiteness is a
    domain rule of the record); ``T | None`` takes ``null`` or ``T``;
    ``tuple[T, ...]`` / ``list[T]`` take a list of ``T``,
    ``tuple[A, B]`` a list of exactly that arity; a dataclass takes an
    object (:func:`from_wire`, recursively); ``np.ndarray`` takes
    rectangular nested number lists.
    """
    kind = type(value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in (bool, int, str, dict):
        if kind is tp:
            return value
    elif tp is float:
        if kind in (int, float):
            try:
                return float(value)
            except OverflowError:  # a JSON integer beyond float range
                pass
    elif origin is types.UnionType:  # only ``T | None`` rides the wire
        return None if value is None else _coerce(value, args[0], where)
    elif origin in (tuple, list):
        variadic = origin is list or args[1:] == (Ellipsis,)
        if kind is list and (variadic or len(value) == len(args)):
            kinds = [args[0]] * len(value) if variadic else args
            return origin(
                _coerce(v, t, f"{where}[{i}]")
                for i, (v, t) in enumerate(zip(value, kinds))
            )
    elif tp is np.ndarray:
        if kind is list:
            rows = [
                _coerce(v, tp if type(v) is list else float, f"{where}[{i}]")
                for i, v in enumerate(value)
            ]
            try:
                return np.asarray(rows, dtype=np.float64)
            except ValueError:  # ragged
                pass
    elif dataclasses.is_dataclass(tp):
        return _record(tp, value, where, {})
    name = tp.__name__ if type(tp) is type else tp
    raise ValueError(f"{where} must be {name}, got {kind.__name__}")


def _record(cls, doc, where: str, local: dict):
    """Build record ``cls`` from a peer's JSON object: every present
    field typed by :func:`_coerce`, fields without a default required,
    unknown keys refused (the envelope key ``op`` excepted), and the
    class constructed so its own ``__post_init__`` applies the domain
    rules. ``local`` supplies what did not ride the JSON."""
    if type(doc) is not dict:
        raise ValueError(f"{where} must be an object, got {type(doc).__name__}")
    fields = _wire_fields(cls)
    unknown = doc.keys() - fields.keys() - {"op"}
    if unknown:
        raise ValueError(f"{where} has unknown fields {sorted(unknown)}")
    for name, (tp, required) in fields.items():
        if name in doc:
            local[name] = _coerce(doc[name], tp, f"{where}.{name}")
        elif required:
            raise ValueError(f"{where} is missing required field {name!r}")
    try:
        return cls(**local)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def from_wire(cls, doc, **local):
    """Decode the JSON object ``doc`` into record ``cls`` (see
    :func:`_record`); ``local`` passes constructor arguments that
    travel outside the JSON (a request's ``x0`` blob). Every refusal is
    a :class:`ValueError` naming the field."""
    return _record(cls, doc, cls.__name__, local)


def _plain(value):
    """The JSON-able form of one field value (see :func:`to_wire`)."""
    if dataclasses.is_dataclass(value):
        return to_wire(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def to_wire(record) -> dict:
    """Encode a record as its JSON object: the wire fields by name,
    nested records recursively, tuples as lists, arrays as nested
    lists, float-annotated fields as floats (so the encoding does not
    depend on whether a caller wrote ``1`` or ``1.0``)."""
    out = {}
    for name, (tp, _) in _wire_fields(type(record)).items():
        value = getattr(record, name)
        floaty = value is not None and tp in (float, float | None)
        out[name] = float(value) if floaty else _plain(value)
    return out


def take(doc: dict, key: str, tp, *default):
    """One typed read of an ad-hoc header or reply field: ``doc[key]``
    as ``tp`` (see :func:`_coerce`), the ``default`` (if one is given)
    when absent, a :class:`ValueError` when absent without one — never
    the bare ``KeyError`` that would masquerade as graph-not-found."""
    if key in doc:
        return _coerce(doc[key], tp, key)
    if not default:
        raise ValueError(f"message is missing required field {key!r}")
    return default[0]


def stream_message(op: str, request) -> tuple[dict, list[np.ndarray]]:
    """Frame a streamed request (``rollout`` / ``ensemble``) for the wire.

    Pure function: the header carries the request's wire fields, the
    single state ``x0`` travels as the one ``.npy`` blob (an M-member
    ensemble ships ONE state, never M — members are derived
    server-side). ``request_id`` and ``submitted_at`` are declared
    ``wire: False`` — the server stamps its own (queue wait is a
    server-side quantity, and the two processes do not share a clock).
    ``trace_id`` DOES cross: it is the correlation key that stitches
    client, router, and server spans into one trace
    (:mod:`repro.obs.trace`).
    """
    return {"op": op, **to_wire(request)}, [request.x0]


def parse_stream_message(cls, header: dict, arrays: Sequence[np.ndarray]):
    """Invert :func:`stream_message` into a fresh server-side ``cls``.

    The rebuilt request gets a new ``request_id`` / ``submitted_at``
    but *keeps* the peer's ``trace_id`` so server-side spans join the
    client's trace (a header without one gets a freshly minted ID,
    one without ``precision`` the canonical float64 — the dataclass
    defaults). Raises :class:`ValueError` (→
    ``bad_request``) for missing, unknown or wrong-typed fields, a
    wrong array count, AND for degenerate requests — M=0 members, zero
    steps, negative noise scale — because construction runs the
    request's own front-door validation: nothing malformed reaches a
    queue, on any engine kind.
    """
    if len(arrays) != 1:
        raise ValueError(
            f"{cls.__name__} carries exactly one array (x0), got {len(arrays)}"
        )
    return from_wire(cls, header, x0=arrays[0])


def summary_frame_message(frame) -> tuple[dict, list[np.ndarray]]:
    """Frame one :class:`~repro.ensemble.api.SummaryFrame` for the wire.

    The header names the summaries in array order; arrays are
    ``[energy, *summaries, *members]``. Without ``return_members`` the
    member list is empty, so the frame's wire size depends only on the
    mesh and the summary selection — never on M (the wire-cost bound
    ``tools/check_ensemble.py`` holds).
    """
    names = sorted(frame.summaries)
    header = {
        "type": "summary",
        "step": int(frame.step),
        "n_members": int(frame.n_members),
        "divergence": float(frame.divergence),
        "summaries": names,
        "members": len(frame.members),
    }
    arrays = [np.asarray(frame.energy, dtype=np.float64)]
    arrays.extend(frame.summaries[n] for n in names)
    arrays.extend(frame.members)
    return header, arrays


def parse_summary_frame(header: dict, arrays: Sequence[np.ndarray]):
    """Invert :func:`summary_frame_message` into a ``SummaryFrame``.

    Raises :class:`ValueError` on missing or wrong-typed header fields
    or a wrong array count.
    """
    from repro.ensemble.api import SummaryFrame

    names = take(header, "summaries", list[str], [])
    n_member_arrays = take(header, "members", int, 0)
    expected = 1 + len(names) + n_member_arrays
    if n_member_arrays < 0 or len(arrays) != expected:
        raise ValueError(
            f"summary frame announced {expected} arrays, carried {len(arrays)}"
        )
    return SummaryFrame(
        step=take(header, "step", int),
        n_members=take(header, "n_members", int),
        summaries=dict(zip(names, arrays[1:1 + len(names)])),
        energy=arrays[0],
        divergence=take(header, "divergence", float),
        members=tuple(arrays[1 + len(names):]),
    )


#: per-rank array fields of a graph-upload message, in wire order;
#: per-neighbor halo send-index arrays follow them for each rank
_GRAPH_ARRAY_FIELDS = (
    "global_ids",
    "pos",
    "edge_index",
    "edge_degree",
    "node_degree",
    "halo_to_local",
)


@dataclasses.dataclass
class _RankMeta:
    """One rank's scalar metadata in a graph-upload header (``neighbors``
    and ``recv_counts`` are parallel, one entry per halo neighbor)."""

    rank: int
    size: int
    pad_count: int
    neighbors: list[int]
    recv_counts: list[int]


def graph_upload_message(key, graphs) -> tuple[dict, list[np.ndarray]]:
    """Frame an in-memory partitioned graph for the wire (``register``).

    This is the registration path for servers that cannot see the
    client's filesystem (disjoint-filesystem cluster shards): the
    header carries each rank's scalar metadata (:class:`_RankMeta`) and
    the arrays travel as ``.npy`` blobs — ``len(_GRAPH_ARRAY_FIELDS)``
    payload arrays plus one halo send-index array per neighbor, per
    rank, in rank order. Exact by
    construction: the ``.npy`` round trip preserves dtype and bits, so
    an uploaded graph serves identically to a path-registered one.
    Server-visible-path registration (``register_graph_dir``) remains
    the fast path — it ships a string, not arrays.
    """
    ranks_meta = []
    arrays: list[np.ndarray] = []
    for g in graphs:
        spec = g.halo.spec
        ranks_meta.append(to_wire(_RankMeta(
            rank=int(g.rank),
            size=int(g.size),
            pad_count=int(spec.pad_count),
            neighbors=[int(n) for n in spec.neighbors],
            recv_counts=[int(spec.recv_counts[n]) for n in spec.neighbors],
        )))
        for field in _GRAPH_ARRAY_FIELDS:
            arrays.append(
                getattr(g, field) if field != "halo_to_local" else g.halo.halo_to_local
            )
        for n in spec.neighbors:
            arrays.append(spec.send_indices[n])
    return {"op": "register_graph", "key": str(key), "ranks": ranks_meta}, arrays


def parse_graph_upload(header: dict, arrays: Sequence[np.ndarray]):
    """Invert :func:`graph_upload_message`; returns ``(key, graphs)``.

    Raises :class:`ValueError` (mapped to ``bad_request``) on malformed
    metadata, wrong array counts, or graphs that fail the same internal
    consistency validation the disk loader applies — a peer cannot
    register a graph the server could not have loaded itself.
    """
    from repro.graph.io import build_local_graph, check_rank_set

    key = take(header, "key", str)
    ranks = take(header, "ranks", list[_RankMeta])
    if not ranks:
        raise ValueError("graph upload carries no rank payloads")
    expected = sum(len(_GRAPH_ARRAY_FIELDS) + len(m.neighbors) for m in ranks)
    if len(arrays) != expected:
        raise ValueError(
            f"graph upload announced {expected} arrays, carried {len(arrays)}"
        )
    graphs = []
    cursor = 0
    try:
        for m in ranks:
            sends = cursor + len(_GRAPH_ARRAY_FIELDS)
            after = sends + len(m.neighbors)
            graphs.append(build_local_graph(
                m.rank, m.size, m.pad_count, m.neighbors, m.recv_counts,
                arrays[sends:after],
                dict(zip(_GRAPH_ARRAY_FIELDS, arrays[cursor:sends])),
            ))
            cursor = after
    except (AssertionError, TypeError, IndexError) as exc:
        # the metadata is typed above; what is left is what validating
        # the arrays themselves raises (bad dtype / rank / index range)
        raise ValueError(f"malformed graph upload: {exc}") from None
    check_rank_set(graphs)
    return key, graphs


@functools.cache
def _error_table() -> tuple:
    """The ordered ``(exception type, wire code)`` rows, most specific
    first (``ModelNotFound`` is a ``KeyError``, ``IncompatibleModel`` a
    ``ValueError``). :func:`error_code` reads it by type and
    :func:`raise_for_code` by code, so adding a code is a one-row
    change. Built lazily so the framing half of this module stays
    dependency-free for unit tests."""
    from repro.serve.admission import DeadlineExpired, QueueFull
    from repro.serve.registry import IncompatibleModel, ModelNotFound

    return (
        (QueueFull, QueueFull.code),
        (DeadlineExpired, DeadlineExpired.code),
        (ModelNotFound, ERR_MODEL_NOT_FOUND),
        (KeyError, ERR_GRAPH_NOT_FOUND),
        (IncompatibleModel, ERR_INCOMPATIBLE),
        (ValueError, ERR_BAD_REQUEST),
        (FileNotFoundError, ERR_BAD_REQUEST),
    )


def error_code(exc: BaseException) -> str:
    """Map a server-side exception to its wire error code (the first
    matching row of :func:`_error_table`, else ``internal``)."""
    return next(
        (code for tp, code in _error_table() if isinstance(exc, tp)),
        ERR_INTERNAL,
    )


def raise_for_code(code: str, message: str) -> None:
    """Client-side inverse of :func:`error_code` (always raises).

    Reconstructs the *same* exception type the in-process engine would
    have raised, so typed failures are engine-independent; unknown
    codes raise :class:`repro.serve.transport.RemoteServeError`.
    """
    for tp, row_code in _error_table():
        if row_code == code:
            raise tp(message)
    from repro.serve.transport import RemoteServeError

    raise RemoteServeError(f"[{code}] {message}")


def read_message(stream: BinaryIO) -> tuple[dict, list[np.ndarray]] | None:
    """Read one message; ``None`` on clean EOF at a message boundary.

    Raises :class:`ProtocolError` on truncation mid-message, oversized
    frames, or headers that do not parse as a JSON object.
    """
    raw_len = _read_exact(stream, _HEADER_LEN.size, eof_ok=True)
    if raw_len is None:
        return None
    (header_len,) = _HEADER_LEN.unpack(raw_len)
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header frame of {header_len} bytes exceeds bound")
    try:
        header = json.loads(_read_exact(stream, header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, an integer literal beyond the interpreter's
        # digit limit, or nesting beyond its stack
        raise ProtocolError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError(f"header must be a JSON object, got {type(header)}")
    n_arrays = header.pop("arrays", 0)
    if type(n_arrays) is not int or not 0 <= n_arrays <= MAX_ARRAYS:
        raise ProtocolError(f"bad array count {n_arrays!r}")
    arrays = []
    for _ in range(n_arrays):
        (blob_len,) = _BLOB_LEN.unpack(_read_exact(stream, _BLOB_LEN.size))
        if blob_len > MAX_ARRAY_BYTES:
            raise ProtocolError(f"array blob of {blob_len} bytes exceeds bound")
        arrays.append(decode_array(_read_exact(stream, blob_len)))
    return header, arrays
