"""Event log: schema validation, JSONL round-trip, crash-truncated tails."""

import json

import pytest

from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    EventError,
    JsonlEventSink,
    MemoryEventSink,
    events_path_for,
    read_events,
    validate_event,
)


class TestValidation:
    def test_unknown_event_type_is_rejected(self):
        sink = MemoryEventSink()
        with pytest.raises(EventError):
            sink.emit("totally_new_event", foo=1)

    def test_missing_required_field_is_rejected(self):
        sink = MemoryEventSink()
        with pytest.raises(EventError):
            sink.emit("trial_finished", key="k", status="ok")  # no steps/...

    def test_extra_fields_are_allowed(self):
        sink = MemoryEventSink()
        sink.emit(
            "campaign_finished", done=1, total=1, elapsed_s=0.1,
            trials_per_s=10.0, phase_stats={"stride": 16},
        )
        assert sink.events[0]["phase_stats"] == {"stride": 16}

    def test_envelope_is_stamped(self):
        sink = MemoryEventSink()
        sink.emit("trial_failed", key="k", error="boom", reason="error", retries=0)
        event = sink.events[0]
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert isinstance(event["ts"], float)
        validate_event(event)  # round-trips through the validator

    def test_validate_rejects_bad_envelope(self):
        with pytest.raises(EventError):
            validate_event({"event": "trial_failed", "key": "k", "error": "x",
                            "reason": "error", "retries": 0})
        with pytest.raises(EventError):
            validate_event({"v": EVENT_SCHEMA_VERSION, "ts": 1.0})


class TestJsonlRoundTrip:
    def test_sidecar_path_naming(self, tmp_path):
        assert events_path_for(tmp_path / "res.jsonl").name == "res.events.jsonl"

    def test_emitted_events_read_back_identically(self, tmp_path):
        path = events_path_for(tmp_path / "r.jsonl")
        sink = JsonlEventSink(path)
        sink.emit("campaign_started", total=4, pending=4, workers=0,
                  batch=True, store="r.jsonl")
        sink.emit("trial_finished", key="a", status="ok", steps=10,
                  unit="batch", fallback=False)
        sink.close()
        events = list(read_events(path, strict=True))
        assert [e["event"] for e in events] == [
            "campaign_started", "trial_finished",
        ]
        assert events[0]["total"] == 4
        assert events[1]["steps"] == 10

    def test_missing_log_yields_nothing(self, tmp_path):
        assert list(read_events(tmp_path / "absent.events.jsonl")) == []

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "r.events.jsonl"
        sink = JsonlEventSink(path)
        sink.emit("trial_failed", key="a", error="x", reason="error", retries=0)
        sink.emit("trial_failed", key="b", error="y", reason="error", retries=0)
        sink.close()
        # Simulate a crash mid-write: a partial trailing line.
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "ts": 1.0, "eve')
        events = list(read_events(path))
        assert [e["key"] for e in events] == ["a", "b"]
        with pytest.raises(EventError):
            list(read_events(path, strict=True))

    def test_mid_file_garbage_stops_the_read(self, tmp_path):
        path = tmp_path / "r.events.jsonl"
        sink = JsonlEventSink(path)
        sink.emit("trial_failed", key="a", error="x", reason="error", retries=0)
        sink.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"v": 1, "ts": 2.0, "event": "trial_failed",
                                 "key": "b", "error": "y",
                                 "reason": "error", "retries": 0}) + "\n")
        # Non-strict reads must not resynchronize past corruption.
        assert [e["key"] for e in read_events(path)] == ["a"]


class TestEmitMany:
    """A sweep's ``cell_composed`` events go out as one write."""

    CAMPAIGN_FIELDS = dict(
        seed=5, algorithms=("unison", "boulinier"), topologies=("ring",),
        sizes=(5, 7), trials=2,
    )
    #: Fields that time the run rather than describe it.
    VOLATILE = {"ts", "elapsed_s", "trials_per_s", "eta_s", "utilization",
                "phase_stats"}

    def stable(self, events):
        return [
            {k: v for k, v in e.items() if k not in self.VOLATILE}
            for e in events if e["event"] != "heartbeat"
        ]

    def test_invalid_event_writes_nothing(self, tmp_path):
        path = tmp_path / "r.events.jsonl"
        sink = JsonlEventSink(path)
        with pytest.raises(EventError):
            sink.emit_many([
                ("cell_composed", {"cell": "c", "trials": 1, "kind": "serial"}),
                ("cell_composed", {"cell": "d"}),
            ])
        sink.close()
        assert path.read_text() == ""

    @pytest.mark.parametrize("batch", [True, False])
    def test_sweep_log_equals_the_memory_sequence(self, tmp_path, batch):
        from repro.engine import Campaign, run_campaign

        campaign = Campaign("emit-many", **self.CAMPAIGN_FIELDS)
        path = tmp_path / "r.events.jsonl"
        with JsonlEventSink(path) as sink:
            run_campaign(campaign, batch=batch, events=sink)
        memory = MemoryEventSink()
        run_campaign(campaign, batch=batch, events=memory)
        logged = list(read_events(path, strict=True))
        assert self.stable(logged) == self.stable(memory.events)
        composed = [e for e in logged if e["event"] == "cell_composed"]
        assert len(composed) == (4 if batch else 8)

    def test_log_torn_inside_the_batch_reads_as_a_prefix(self, tmp_path):
        from repro.engine import Campaign, run_specs

        campaign = Campaign("emit-many-torn", **self.CAMPAIGN_FIELDS)
        path = tmp_path / "r.events.jsonl"
        with JsonlEventSink(path) as sink:
            run_specs(campaign.specs(), campaign.seed, batch=False, events=sink)
        full = list(read_events(path, strict=True))
        lines = path.read_bytes().splitlines(keepends=True)
        assert [e["event"] for e in full[:8]] == ["cell_composed"] * 8
        # A crash in the middle of the fourth cell_composed line.
        torn = b"".join(lines[:3]) + lines[3][: len(lines[3]) // 2]
        path.write_bytes(torn)
        assert list(read_events(path)) == full[:3]
