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
the framing is unit-testable without sockets. Above the framing, the
protocol speaks the runtime layer's typed dataclasses directly:
:func:`rollout_message` / :func:`parse_rollout_message` round-trip a
:class:`~repro.runtime.api.RolloutRequest`, and :func:`error_code` /
:func:`raise_for_code` map typed exceptions to wire codes and back, so
a failure raised by the remote engine is the *same type* the
in-process engine raises.

Thread safety: the functions here are pure stream transformations and
hold no state; concurrent use on *distinct* streams is safe, and one
stream must not be shared by concurrent readers or writers.
Determinism: encoding is canonical (sorted-key compact JSON, ``.npy``
v1 format), so the same header + arrays always produce the same bytes.
"""

from __future__ import annotations

import io
import json
import struct
from typing import BinaryIO, Sequence

import numpy as np

from repro.runtime.api import RolloutRequest

#: Sanity bound on the JSON header frame — a peer speaking a different
#: protocol (or random garbage) fails fast instead of allocating.
MAX_HEADER_BYTES = 1 << 20
#: Sanity bound on one array blob (covers far-beyond-paper-scale states).
MAX_ARRAY_BYTES = 1 << 32

_HEADER_LEN = struct.Struct(">I")
_BLOB_LEN = struct.Struct(">Q")


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not parse as a protocol message."""


# -- typed status codes (server -> client error messages) --------------------

#: Admission control refused the request: the queue is at capacity.
ERR_QUEUE_FULL = "queue_full"
#: The request's deadline passed while it waited in the queue.
ERR_DEADLINE_EXPIRED = "deadline_expired"
#: No model registered under the requested name.
ERR_MODEL_NOT_FOUND = "model_not_found"
#: No graph registered under the requested key.
ERR_GRAPH_NOT_FOUND = "graph_not_found"
#: Model/graph/request shapes or configs disagree.
ERR_INCOMPATIBLE = "incompatible"
#: The request names a capability this server lacks (e.g. the float32
#: inference tier on a server that only speaks float64).
ERR_CAPABILITY = "capability"
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
    """Invert :func:`encode_array`; rejects pickled payloads."""
    try:
        return np.load(io.BytesIO(blob), allow_pickle=False)
    except ValueError as exc:
        raise ProtocolError(f"array blob does not parse as .npy: {exc}") from None


def write_message(
    stream: BinaryIO, header: dict, arrays: Sequence[np.ndarray] = ()
) -> None:
    """Frame and write one message (header JSON + array blobs), then flush."""
    body = dict(header)
    body["arrays"] = len(arrays)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(payload)} bytes)")
    stream.write(_HEADER_LEN.pack(len(payload)))
    stream.write(payload)
    for array in arrays:
        blob = encode_array(array)
        if len(blob) > MAX_ARRAY_BYTES:
            raise ProtocolError(f"array too large ({len(blob)} bytes)")
        stream.write(_BLOB_LEN.pack(len(blob)))
        stream.write(blob)
    stream.flush()


def require_field(header: dict, key: str):
    """Fetch a required header field; missing fields are bad requests
    (a bare ``KeyError`` would masquerade as graph-not-found)."""
    try:
        return header[key]
    except KeyError:
        raise ValueError(f"message is missing required field {key!r}") from None


def require_str(header: dict, key: str) -> str:
    """A required header field that names something (a model, a graph
    key, a path): any other type is the peer's bad request, not an
    ``unhashable type`` deep inside a registry lookup."""
    value = require_field(header, key)
    if not isinstance(value, str):
        raise ValueError(
            f"field {key!r} must be a string, got {type(value).__name__}"
        )
    return value


def _stream_header(op: str, request) -> dict:
    """The header fields every streamed request kind shares."""
    return {
        "op": op,
        "model": request.model,
        "graph": request.graph,
        "n_steps": int(request.n_steps),
        "halo_mode": request.halo_mode,
        "residual": bool(request.residual),
        "precision": request.precision,
        "deadline_s": request.deadline_s,
        "trace_id": request.trace_id,
    }


def _parse_stream_request(
    kind: str, cls, header: dict, arrays: Sequence[np.ndarray],
    extra=lambda header: {},
):
    """Rebuild a ``cls`` request from the shared header fields plus
    whatever ``extra(header)`` reads for the kind.

    The reconstructed request gets a new ``request_id`` /
    ``submitted_at`` but *keeps* the peer's ``trace_id`` so server-side
    spans join the client's trace (a peer that predates tracing gets a
    freshly minted ID). Everything a malformed header can trigger is a
    :class:`ValueError` (``bad_request`` on the wire).
    """
    if len(arrays) != 1:
        raise ValueError(
            f"{kind} carries exactly one array (x0), got {len(arrays)}"
        )
    try:
        fields = extra(header)
        if header.get("trace_id") is not None:
            fields["trace_id"] = str(header["trace_id"])
        return cls(
            model=require_str(header, "model"),
            graph=require_str(header, "graph"),
            x0=arrays[0],
            n_steps=int(require_field(header, "n_steps")),
            halo_mode=header.get("halo_mode"),
            residual=bool(header.get("residual", False)),
            # absent on peers that predate the float32 tier: canonical
            precision=str(header.get("precision", "float64")),
            deadline_s=header.get("deadline_s"),
            **fields,
        )
    except (TypeError, AttributeError) as exc:
        # wrong-typed header fields (n_steps: null, deadline_s: "soon",
        # ...) are the peer's fault, not an internal failure
        raise ValueError(f"malformed {kind} request: {exc}") from None


def rollout_message(
    request: RolloutRequest,
) -> tuple[dict, list[np.ndarray]]:
    """Frame a :class:`~repro.runtime.api.RolloutRequest` for the wire.

    Pure function: the header carries the request's scalar fields,
    ``x0`` travels as the single ``.npy`` blob. ``request_id`` and
    ``submitted_at`` deliberately do NOT cross the wire — the server
    stamps its own (queue wait is a server-side quantity, and the two
    processes do not share a clock). ``trace_id`` DOES cross: it is the
    correlation key that stitches client, router, and server spans into
    one trace (:mod:`repro.obs.trace`).
    """
    return _stream_header("rollout", request), [request.x0]


def parse_rollout_message(
    header: dict, arrays: Sequence[np.ndarray]
) -> RolloutRequest:
    """Invert :func:`rollout_message` into a fresh server-side request.

    Raises :class:`ValueError` on missing or wrong-typed fields or a
    wrong array count (mapped to ``bad_request`` by the transport); see
    :func:`_parse_stream_request` for what is kept and what is stamped
    anew.
    """
    return _parse_stream_request("rollout", RolloutRequest, header, arrays)


def ensemble_message(request) -> tuple[dict, list[np.ndarray]]:
    """Frame an :class:`~repro.ensemble.api.EnsembleRequest` for the wire.

    Like :func:`rollout_message`: scalars ride the header, the single
    base state ``x0`` is the one ``.npy`` blob (members are derived
    server-side — an M-member ensemble ships ONE state, never M), and
    ``request_id``/``submitted_at`` stay process-local while
    ``trace_id`` crosses.
    """
    header = {
        **_stream_header("ensemble", request),
        "n_members": int(request.n_members),
        "perturbation": request.perturbation.to_dict(),
        "summaries": list(request.summaries),
        "quantiles": list(request.quantiles),
        "return_members": bool(request.return_members),
        "stability": (
            None if request.stability is None else request.stability.to_dict()
        ),
        "member_range": (
            None if request.member_range is None
            else list(request.member_range)
        ),
    }
    return header, [request.x0]


def parse_ensemble_message(header: dict, arrays: Sequence[np.ndarray]):
    """Invert :func:`ensemble_message` into a fresh server-side request.

    Raises :class:`ValueError` (→ ``bad_request`` on the wire) for
    malformed headers AND for degenerate requests — M=0 members, zero
    steps, negative noise scale — because the reconstruction runs the
    request dataclasses' own front-door validation. A degenerate
    ensemble is rejected before it touches the queue, on every engine
    kind.
    """
    from repro.ensemble.api import EnsembleRequest, PerturbationSpec
    from repro.ensemble.stability import StabilityConfig

    def ensemble_fields(header: dict) -> dict:
        member_range = header.get("member_range")
        return dict(
            n_members=int(require_field(header, "n_members")),
            perturbation=PerturbationSpec.from_dict(
                header.get("perturbation") or {}
            ),
            summaries=tuple(header.get("summaries", ())),
            quantiles=tuple(header.get("quantiles", ())),
            return_members=bool(header.get("return_members", False)),
            stability=(
                None if header.get("stability") is None
                else StabilityConfig.from_dict(header["stability"])
            ),
            member_range=(
                None if member_range is None else tuple(member_range)
            ),
        )

    return _parse_stream_request(
        "ensemble", EnsembleRequest, header, arrays, ensemble_fields
    )


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

    try:
        names = list(header.get("summaries", ()))
        n_member_arrays = int(header.get("members", 0))
        if len(arrays) != 1 + len(names) + n_member_arrays:
            raise ValueError(
                f"summary frame announced {1 + len(names) + n_member_arrays} "
                f"arrays, carried {len(arrays)}"
            )
        return SummaryFrame(
            step=int(require_field(header, "step")),
            n_members=int(require_field(header, "n_members")),
            summaries=dict(zip(names, arrays[1:1 + len(names)])),
            energy=arrays[0],
            divergence=float(require_field(header, "divergence")),
            members=tuple(arrays[1 + len(names):]),
        )
    except TypeError as exc:
        # wrong-typed header fields (members: null, summaries: 5, ...)
        # are the peer's protocol violation, not an internal failure
        raise ValueError(f"malformed summary frame: {exc}") from None


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


def graph_upload_message(key, graphs) -> tuple[dict, list[np.ndarray]]:
    """Frame an in-memory partitioned graph for the wire (``register``).

    This is the registration path for servers that cannot see the
    client's filesystem (disjoint-filesystem cluster shards): the
    header carries each rank's scalar metadata (rank, size, pad count,
    neighbor ids, receive counts) and the arrays travel as ``.npy``
    blobs — ``len(_GRAPH_ARRAY_FIELDS)`` payload arrays plus one halo
    send-index array per neighbor, per rank, in rank order. Exact by
    construction: the ``.npy`` round trip preserves dtype and bits, so
    an uploaded graph serves identically to a path-registered one.
    Server-visible-path registration (``register_graph_dir``) remains
    the fast path — it ships a string, not arrays.
    """
    ranks_meta = []
    arrays: list[np.ndarray] = []
    for g in graphs:
        spec = g.halo.spec
        ranks_meta.append(
            {
                "rank": int(g.rank),
                "size": int(g.size),
                "pad_count": int(spec.pad_count),
                "neighbors": [int(n) for n in spec.neighbors],
                "recv_counts": [int(spec.recv_counts[n]) for n in spec.neighbors],
            }
        )
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

    key = require_str(header, "key")
    ranks_meta = require_field(header, "ranks")
    if not isinstance(ranks_meta, list) or not ranks_meta:
        raise ValueError("graph upload carries no rank payloads")
    graphs = []
    cursor = 0
    try:
        expected = sum(
            len(_GRAPH_ARRAY_FIELDS) + len(meta.get("neighbors", []))
            for meta in ranks_meta
        )
        if len(arrays) != expected:
            raise ValueError(
                f"graph upload announced {expected} arrays, "
                f"carried {len(arrays)}"
            )
        for meta in ranks_meta:
            sends = cursor + len(_GRAPH_ARRAY_FIELDS)
            after = sends + len(meta["neighbors"])
            graphs.append(build_local_graph(
                meta["rank"], meta["size"], meta["pad_count"],
                meta["neighbors"], meta["recv_counts"], arrays[sends:after],
                dict(zip(_GRAPH_ARRAY_FIELDS, arrays[cursor:sends])),
            ))
            cursor = after
    except (KeyError, TypeError, IndexError, AttributeError,
            AssertionError) as exc:
        # everything a type-confused peer can trigger — a rank entry
        # that is not a dict, wrong-typed fields, short arrays, or a
        # payload failing graph validation — is the peer's bad request
        raise ValueError(f"malformed graph upload: {exc}") from None
    check_rank_set(graphs)
    return str(key), graphs


def error_code(exc: BaseException) -> str:
    """Map a server-side exception to its wire error code.

    Pure function; the import of the exception types is deferred so the
    framing half of this module stays dependency-free for unit tests.
    """
    from repro.runtime.api import CapabilityError
    from repro.serve.admission import RequestRejected
    from repro.serve.registry import IncompatibleModel, ModelNotFound

    if isinstance(exc, RequestRejected):
        return exc.code  # queue_full / deadline_expired
    if isinstance(exc, CapabilityError):
        return ERR_CAPABILITY
    if isinstance(exc, ModelNotFound):
        return ERR_MODEL_NOT_FOUND
    if isinstance(exc, KeyError):
        return ERR_GRAPH_NOT_FOUND
    if isinstance(exc, IncompatibleModel):
        return ERR_INCOMPATIBLE
    if isinstance(exc, (ValueError, FileNotFoundError)):
        return ERR_BAD_REQUEST
    return ERR_INTERNAL


def raise_for_code(code: str, message: str) -> None:
    """Client-side inverse of :func:`error_code` (always raises).

    Reconstructs the *same* exception type the in-process engine would
    have raised, so typed failures are engine-independent; unknown
    codes raise :class:`repro.serve.transport.RemoteServeError`.
    """
    from repro.runtime.api import CapabilityError
    from repro.serve.admission import DeadlineExpired, QueueFull
    from repro.serve.registry import IncompatibleModel, ModelNotFound

    if code == ERR_CAPABILITY:
        raise CapabilityError(message)
    if code == ERR_QUEUE_FULL:
        raise QueueFull(message)
    if code == ERR_DEADLINE_EXPIRED:
        raise DeadlineExpired(message)
    if code == ERR_MODEL_NOT_FOUND:
        raise ModelNotFound(message)
    if code == ERR_GRAPH_NOT_FOUND:
        raise KeyError(message)
    if code == ERR_INCOMPATIBLE:
        raise IncompatibleModel(message)
    if code == ERR_BAD_REQUEST:
        raise ValueError(message)
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError(f"header must be a JSON object, got {type(header)}")
    n_arrays = header.pop("arrays", 0)
    if not isinstance(n_arrays, int) or n_arrays < 0:
        raise ProtocolError(f"bad array count {n_arrays!r}")
    arrays = []
    for _ in range(n_arrays):
        (blob_len,) = _BLOB_LEN.unpack(_read_exact(stream, _BLOB_LEN.size))
        if blob_len > MAX_ARRAY_BYTES:
            raise ProtocolError(f"array blob of {blob_len} bytes exceeds bound")
        arrays.append(decode_array(_read_exact(stream, blob_len)))
    return header, arrays
