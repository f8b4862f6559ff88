"""Unit tests of repro.obs.trace: spans, ring buffers, exports."""

import json

import pytest

from repro.obs.trace import (
    TRACE_CAPACITY,
    Span,
    TraceBuffer,
    mint_trace_id,
    to_chrome,
    trace_markdown,
    wall_from_perf,
)
from repro.serve.protocol import from_wire, to_wire


def span(trace_id="t1", name="execute", start=1.0, **kwargs):
    defaults = dict(component="server", duration_s=0.5)
    defaults.update(kwargs)
    return Span(trace_id=trace_id, name=name, start_s=start, **defaults)


class TestMintTraceId:
    def test_shape_and_uniqueness(self):
        ids = {mint_trace_id() for _ in range(256)}
        assert len(ids) == 256
        for tid in ids:
            assert len(tid) == 16
            int(tid, 16)  # hex


class TestWallAnchor:
    def test_perf_conversion_is_affine(self):
        # same offset applied to any timestamp: differences preserved
        assert wall_from_perf(2.0) - wall_from_perf(1.0) == pytest.approx(1.0)


class TestTraceBuffer:
    def test_bounded_ring_evicts_oldest(self):
        buf = TraceBuffer()
        for i in range(TRACE_CAPACITY + 2):
            buf.record(span(name=f"s{i}", start=float(i)))
        assert len(buf) == TRACE_CAPACITY
        names = [s.name for s in buf.spans()]
        assert names[0] == "s2" and names[-1] == f"s{TRACE_CAPACITY + 1}"

    def test_trace_filters_and_sorts_by_start(self):
        buf = TraceBuffer()
        buf.record(span(trace_id="a", name="late", start=2.0))
        buf.record(span(trace_id="b", name="other", start=0.0))
        buf.record(span(trace_id="a", name="early", start=1.0))
        assert [s.name for s in buf.trace("a")] == ["early", "late"]
        assert buf.trace("missing") == []

    def test_span_context_manager_marks_failures(self):
        buf = TraceBuffer()
        with pytest.raises(ValueError):
            with buf.span("t", "boom", "server") as attrs:
                attrs["detail"] = "x"
                raise ValueError("no")
        (recorded,) = buf.spans()
        assert recorded.status == "failed"
        assert recorded.attrs["detail"] == "x"
        assert recorded.duration_s >= 0.0

    def test_clear(self):
        buf = TraceBuffer()
        buf.record(span())
        buf.clear()
        assert buf.spans() == []


class TestWireRoundTrip:
    def test_dicts_round_trip_through_json(self):
        spans = [span(name="a", status="failed", attrs={"frames": 3}),
                 span(name="b", start=2.5)]
        docs = json.loads(json.dumps([to_wire(s) for s in spans]))
        assert [from_wire(Span, d) for d in docs] == spans


class TestChromeExport:
    def test_components_become_processes(self):
        spans = [
            span(name="network", component="client", start=10.0),
            span(name="execute", component="server", start=10.5),
        ]
        doc = to_chrome(spans)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"client", "server"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        # timestamps are relative to the earliest span, in microseconds
        assert min(e["ts"] for e in complete) == 0.0
        assert max(e["ts"] for e in complete) == pytest.approx(0.5e6)

    def test_empty_input(self):
        assert to_chrome([]) == {"traceEvents": [], "displayTimeUnit": "ms"}


class TestMarkdown:
    def test_renders_chronological_table(self):
        text = trace_markdown([span(name="b", start=2.0),
                               span(name="a", start=1.0)])
        lines = text.splitlines()
        assert lines[0].startswith("| t+ (ms)")
        assert lines[2].split("|")[2].strip() == "a"

    def test_empty(self):
        assert trace_markdown([]) == "(no spans)"
