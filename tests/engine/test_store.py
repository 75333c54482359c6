"""The JSONL result store: durability, schema checks, queries."""

import json

import pytest

from repro.engine import SCHEMA_VERSION, ResultStore, StoreError


def record(key: str, n: int = 8, moves: int = 10) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "campaign": "t",
        "campaign_seed": 0,
        "key": key,
        "seed": 1,
        "spec": {"algorithm": "unison", "n": n},
        "result": {"moves": moves, "rounds": 3},
    }


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        assert not store.exists()
        store.append(record("a"))
        store.append_many([record("b"), record("c")])
        assert store.load() == [record("a"), record("b"), record("c")]
        assert store.keys() == {"a", "b", "c"}
        assert len(store) == 3

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "none.jsonl").load() == []

    def test_schema_stamped_automatically(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        bare = record("a")
        bare.pop("schema")
        store.append(bare)
        assert store.load()[0]["schema"] == SCHEMA_VERSION

    def test_loaded_records_share_field_names(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append_many([record("a"), record("b")])
        first, second = store.load()
        for one, other in ((first, second), (first["spec"], second["spec"])):
            assert all(a is b for a, b in zip(one, other))


class TestCrashTolerance:
    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(record("a"))
        store.append(record("b"))
        # Simulate a crash mid-append: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        assert store.keys() == {"a"}

    def test_truncated_tail_warns_with_location(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(record("a"))
        store.append(record("b"))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        with pytest.warns(RuntimeWarning, match=r"r\.jsonl:2.*corrupt"):
            assert [r["key"] for r in store.load()] == ["a"]

    @pytest.mark.parametrize("tail", ["torn", "zero-filled"])
    def test_torn_write_resume_rebuilds_byte_identically(self, tmp_path, tail):
        """A crash-torn final line is skipped; resume re-runs that trial
        and the healed store equals an uninterrupted run byte for byte.

        ``zero-filled`` is what an unsynced append can leave after a host
        crash: the file grew, but the final line's bytes never reached
        the disk and read back as NULs.
        """
        from repro.engine import Campaign, run_campaign

        campaign = Campaign(
            "torn", seed=11, algorithms=("unison",), topologies=("ring",),
            sizes=(5,), scenarios=("random",), trials=3,
        )
        clean_path = tmp_path / "clean.jsonl"
        run_campaign(campaign, store=ResultStore(clean_path), resume=True)
        reference = clean_path.read_bytes()

        torn_path = tmp_path / "torn.jsonl"
        if tail == "torn":
            torn_path.write_bytes(reference[:-30])  # crash mid-final-append
        else:
            last = reference.rstrip(b"\n").rfind(b"\n") + 1
            torn_path.write_bytes(
                reference[:last] + bytes(len(reference) - last)
            )
        store = ResultStore(torn_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            outcome = run_campaign(campaign, store=store, resume=True)
        assert len(outcome.records) == campaign.size
        assert outcome.records == ResultStore(clean_path).load(strict=True)
        # Appends heal the torn tail first, so the resumed store is a
        # byte-for-byte match of the uninterrupted run.
        assert torn_path.read_bytes() == reference

    def test_strict_mode_raises_on_corruption(self, tmp_path):
        path = tmp_path / "r.jsonl"
        ResultStore(path).append(record("a"))
        path.write_text(path.read_text() + "{broken\n")
        with pytest.raises(StoreError, match="corrupt"):
            ResultStore(path).load(strict=True)

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "r.jsonl"
        newer = record("a")
        newer["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(newer) + "\n")
        with pytest.raises(StoreError, match="newer"):
            ResultStore(path).load()

    def test_compact_drops_corrupt_tail_and_duplicates(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(record("a", moves=1))
        store.append(record("a", moves=2))  # rewrite of the same trial
        path.write_text(path.read_text() + '{"half')
        store.compact()
        records = store.load(strict=True)
        assert [r["key"] for r in records] == ["a"]
        assert records[0]["result"]["moves"] == 2


class TestRewriteAndQuery:
    def test_rewrite_is_total_and_atomic(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("a"))
        store.rewrite([record("x"), record("y")])
        assert store.keys() == {"x", "y"}
        assert not list(tmp_path.glob("*.tmp"))

    def test_query_reaches_spec_and_result_fields(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(record("a", n=8, moves=5))
        store.append(record("b", n=12, moves=50))
        assert [r["key"] for r in store.query(n=12)] == ["b"]
        assert [r["key"] for r in store.query(algorithm="unison", moves=5)] == ["a"]
        assert store.query(predicate=lambda r: r["result"]["moves"] > 10)[0]["key"] == "b"


class TestTrialSerialization:
    def test_trial_round_trip(self):
        from repro.engine import trial_from_record, trial_to_dict
        from repro.engine.campaign import TrialSpec
        from repro.harness.runner import run_trial

        trial = run_trial(TrialSpec("fga", "random", 8, "random"), seed=42)
        data = trial_to_dict(trial)
        json.dumps(data)  # JSON-safe, including the frozenset alliance
        rebuilt = trial_from_record({"result": data})
        assert rebuilt == trial
