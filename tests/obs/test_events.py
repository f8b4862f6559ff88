"""Unit tests of repro.obs.events: bounded structured event log."""

from repro.obs.events import EVENT_CAPACITY, EventLog, events_markdown


class TestEventLog:
    def test_emit_stamps_wall_clock_and_keeps_attrs(self):
        log = EventLog()
        event = log.emit("spill", source="a", target="b")
        assert event.kind == "spill"
        assert event.wall_s > 0.0
        assert event.attrs == {"source": "a", "target": "b"}
        assert log.events() == [event]

    def test_bounded_ring_evicts_oldest(self):
        log = EventLog()
        for i in range(EVENT_CAPACITY + 2):
            log.emit("tick", n=i)
        assert len(log) == EVENT_CAPACITY
        assert [e.attrs["n"] for e in log.events()] == list(
            range(2, EVENT_CAPACITY + 2)
        )

    def test_filter_by_kind(self):
        log = EventLog()
        log.emit("spill")
        log.emit("redrive")
        log.emit("spill")
        assert [e.kind for e in log.events("spill")] == ["spill", "spill"]
        assert log.events("missing") == []

    def test_clear(self):
        log = EventLog()
        log.emit("x")
        log.clear()
        assert log.events() == []


class TestMarkdown:
    def test_renders_chronological_table(self):
        log = EventLog()
        log.emit("spill", source="a", target="b")
        log.emit("redrive")
        text = events_markdown(log.events())
        lines = text.splitlines()
        assert lines[0] == "| wall clock | event | attrs |"
        assert "| spill | source=a, target=b |" in lines[2]
        assert "| redrive |" in lines[3]

    def test_empty(self):
        assert events_markdown([]) == "(no events)"
