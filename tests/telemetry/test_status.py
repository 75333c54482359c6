"""``status``: summarizing a finished, partial, or crashed sweep."""

from repro.engine import Campaign, ResultStore, run_campaign
from repro.telemetry.events import JsonlEventSink, events_path_for
from repro.telemetry.provenance import build_manifest, write_manifest
from repro.telemetry.status import render_status, summarize_status

CAMPAIGN = Campaign(
    "status-test", seed=9, algorithms=("unison",), topologies=("ring",),
    sizes=(5, 7), scenarios=("random",), trials=2,
)


def run_sweep(tmp_path):
    """A finished 4-trial sweep with both sidecars, like the CLI leaves."""
    store = ResultStore(tmp_path / "r.jsonl")
    sink = JsonlEventSink(events_path_for(store.path))
    write_manifest(store.path, build_manifest(campaign=CAMPAIGN))
    run_campaign(CAMPAIGN, store=store, events=sink)
    sink.close()
    return store


class TestFinishedSweep:
    def test_summary_fields(self, tmp_path):
        store = run_sweep(tmp_path)
        summary = summarize_status(store.path)
        assert summary["records"] == 4
        assert summary["total"] == 4
        assert summary["by_algorithm"] == {"unison": 4}
        assert summary["running"] is False
        assert summary["failures"] == []
        assert summary["throughput"]["done"] == 4
        assert summary["manifest"]["campaign"]["name"] == "status-test"

    def test_render_mentions_the_essentials(self, tmp_path):
        store = run_sweep(tmp_path)
        text = render_status(summarize_status(store.path))
        assert "4 trials landed of 4 (100%)" in text
        assert "finished" in text
        assert "unison: 4" in text


class TestPartialSweep:
    def test_truncated_store_and_missing_finish_event(self, tmp_path):
        store = run_sweep(tmp_path)
        # Keep 2 of 4 records plus a crash-truncated partial line...
        lines = store.path.read_text().splitlines(keepends=True)
        store.path.write_text("".join(lines[:2]) + lines[2][:25])
        # ...and cut the event log before campaign_finished.
        events_path = events_path_for(store.path)
        kept = [line for line in events_path.read_text().splitlines(keepends=True)
                if '"campaign_finished"' not in line]
        events_path.write_text("".join(kept))

        summary = summarize_status(store.path)
        assert summary["records"] == 2
        assert summary["total"] == 4
        assert summary["running"] is True
        text = render_status(summary)
        assert "2 trials landed of 4 (50%)" in text
        assert "running (or crashed mid-run)" in text

    def test_store_only_no_event_log(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(CAMPAIGN, store=store)
        summary = summarize_status(store.path)
        assert summary["records"] == 4
        assert summary["total"] is None
        assert summary["running"] is False
        assert "no event log" in render_status(summary)

    def test_failures_are_surfaced(self, tmp_path):
        store_path = tmp_path / "r.jsonl"
        sink = JsonlEventSink(events_path_for(store_path))
        sink.emit("campaign_started", total=2, pending=2, workers=0,
                  batch=True, store=str(store_path))
        sink.emit("trial_failed", key="some|trial", error="budget exhausted",
                  reason="budget", retries=1)
        sink.close()
        summary = summarize_status(store_path)
        assert summary["failures"] == [
            {"key": "some|trial", "error": "budget exhausted",
             "reason": "budget", "retries": 1}
        ]
        assert summary["running"] is True
        assert ("FAILED some|trial [budget, 1 retries]: budget exhausted"
                in render_status(summary))

    def test_failures_a_later_resume_landed_are_dropped(self, tmp_path):
        store = run_sweep(tmp_path)
        landed = next(store.iter_records())["key"]
        sink = JsonlEventSink(events_path_for(store.path))
        sink.emit("trial_failed", key=landed, error="worker died",
                  reason="crash", retries=0)
        sink.emit("trial_failed", key="other|trial", error="worker died",
                  reason="crash", retries=0)
        sink.close()
        summary = summarize_status(store.path)
        assert [f["key"] for f in summary["failures"]] == ["other|trial"]
        assert f"FAILED {landed} " not in render_status(summary)
