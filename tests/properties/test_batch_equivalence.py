"""Property regression: batched ``(T, n)`` cells equal T serial trials.

``run_trial_batch`` runs a whole campaign cell as one tiled simulation;
the engine batches cells by default.  Nothing downstream may notice:
every trial record — accounting, metrics, extras, derived seed — must be
*identical* to the serial ``run_trial`` record, and the persisted stores
must be byte-identical across serial, parallel, batched, and unbatched
execution.
"""

import dataclasses
import json

import pytest

from repro.engine.campaign import Campaign, TrialSpec
from repro.engine.pool import execute_batch, execute_trial, run_specs
from repro.engine.seeds import derive_seed
from repro.engine.store import ResultStore
from repro.harness import runner
from repro.harness.runner import ALGORITHMS, can_batch, run_trial_batch


def record_bytes(record: dict) -> str:
    return json.dumps(record, sort_keys=True, default=str)


def assert_cells_identical(campaign: Campaign) -> int:
    cells: dict[str, list] = {}
    for spec in campaign.specs():
        cells.setdefault(spec.cell_key(), []).append(spec)
    checked = 0
    for cell in cells.values():
        assert can_batch(cell[0])
        serial = [execute_trial(s, campaign.seed, campaign.name) for s in cell]
        batched, error, fallback = execute_batch(cell, campaign.seed, campaign.name)
        assert error is None and not fallback
        assert len(batched) == len(serial)
        for expected, got in zip(serial, batched):
            assert record_bytes(expected) == record_bytes(got), expected["key"]
            checked += 1
    return checked


@pytest.mark.parametrize("daemon", [
    "synchronous", "central", "locally-central",
    "distributed-random", "weakly-fair",
])
def test_unison_cells_record_identical(daemon):
    campaign = Campaign(
        name="batch-u", seed=17, algorithms=("unison",),
        topologies=("ring", "grid"), sizes=(8,),
        scenarios=("random", "gradient"), daemons=(daemon,), trials=3,
    )
    assert assert_cells_identical(campaign) == campaign.size


def declared_cells():
    """Every registry entry × every scenario it declares (``faults:2``
    standing in for ``faults:<k>``)."""
    for algorithm, entry in ALGORITHMS.items():
        for scenario in entry.scenarios:
            yield algorithm, scenario
        if entry.corruptible:
            yield algorithm, "faults:2"


@pytest.mark.parametrize("algorithm,scenario", list(declared_cells()))
def test_declared_scenarios_record_identical(algorithm, scenario):
    campaign = Campaign(
        name=f"batch-{algorithm}", seed=29, algorithms=(algorithm,),
        topologies=("ring", "tree"), sizes=(9,), scenarios=(scenario,),
        daemons=("distributed-random", "synchronous", "weakly-fair"),
        trials=3,
    )
    assert assert_cells_identical(campaign) == campaign.size


def shrink_default_budget(monkeypatch, algorithm: str, budget: int) -> None:
    """Shrink an entry's *default* step budget — not a spec param, which
    would change keys, hence seeds."""
    entry = dataclasses.replace(ALGORITHMS[algorithm], max_steps=budget)
    monkeypatch.setitem(runner.ALGORITHMS, algorithm, entry)


def test_partial_cells_batch_identically():
    """Resume leftovers (a strict subset of a cell) batch correctly."""
    campaign = Campaign(
        name="batch-part", seed=31, algorithms=("unison",),
        topologies=("ring",), sizes=(8,), daemons=("distributed-random",),
        trials=5,
    )
    from repro.engine.store import trial_to_dict

    specs = campaign.specs()
    subset = [specs[1], specs[3], specs[4]]  # as if trials 0 and 2 stored
    seeds = [campaign.seed_for(s) for s in subset]
    batched = run_trial_batch(subset, seeds)
    for spec, got in zip(subset, batched):
        expected = execute_trial(spec, campaign.seed, campaign.name)
        assert record_bytes(expected["result"]) == record_bytes(
            trial_to_dict(got)
        )


def test_stores_byte_identical_across_execution_modes(tmp_path):
    campaign = Campaign(
        name="batch-modes", seed=41, algorithms=("unison",),
        topologies=("ring",), sizes=(8, 10), daemons=("distributed-random",),
        trials=3,
    )
    stores = {}
    for mode, kwargs in {
        "serial-batched": dict(workers=0),
        "serial-unbatched": dict(workers=0, batch=False),
        "parallel-batched": dict(workers=2),
    }.items():
        store = ResultStore(tmp_path / f"{mode}.jsonl")
        run_specs(
            campaign.specs(), campaign.seed, campaign=campaign.name,
            store=store, **kwargs,
        )
        stores[mode] = sorted(store.path.read_text().splitlines())
    assert stores["serial-batched"] == stores["serial-unbatched"]
    assert stores["serial-batched"] == stores["parallel-batched"]


def test_run_specs_returns_grid_order_when_batched():
    campaign = Campaign(
        name="batch-order", seed=43, algorithms=("unison",),
        topologies=("ring",), sizes=(8,), daemons=("distributed-random",),
        trials=4,
    )
    records = run_specs(campaign.specs(), campaign.seed, campaign=campaign.name)
    assert [r["key"] for r in records] == [s.key() for s in campaign.specs()]


def test_unbatchable_cells_fall_back(monkeypatch):
    """A cell that fails to batch at runtime still produces records."""
    import repro.engine.pool as pool
    from repro.core.exceptions import UnbatchableError

    campaign = Campaign(
        name="batch-fb", seed=47, algorithms=("unison",), topologies=("ring",),
        sizes=(8,), daemons=("distributed-random",), trials=3,
    )
    specs = campaign.specs()

    def broken_batch(specs, seeds):
        raise UnbatchableError("cannot tile")

    monkeypatch.setattr("repro.harness.runner.run_trial_batch", broken_batch)
    records, error, fallback = pool.execute_batch(specs, campaign.seed, campaign.name)
    assert error is None and fallback
    direct = [pool.execute_trial(s, campaign.seed, campaign.name) for s in specs]
    assert [record_bytes(r) for r in records] == [record_bytes(r) for r in direct]

    def buggy_batch(specs, seeds):
        raise ValueError("genuine defect inside the batch kernel")

    # Only UnbatchableError falls back — other errors are real defects
    # and must surface rather than silently disable batching.
    monkeypatch.setattr("repro.harness.runner.run_trial_batch", buggy_batch)
    with pytest.raises(ValueError, match="genuine defect"):
        pool.execute_batch(specs, campaign.seed, campaign.name)


@pytest.mark.parametrize("workers", [0, 2])
def test_not_stabilized_batch_persists_stabilizing_siblings(
    monkeypatch, tmp_path, workers
):
    """A budget-exhausted batch lands its stabilizing siblings' records.

    When one replicate of a batched cell exceeds its step budget, the
    batch's own per-trial outcomes already hold the siblings that did
    stabilize; those records ride the ``NotStabilized`` failure
    (``partial``) and land in the store — with *no* serial re-run of
    the cell — at any worker count.
    """
    from repro.core.exceptions import NotStabilized

    campaign = Campaign(
        name="batch-ns", seed=53, algorithms=("unison",), topologies=("ring",),
        sizes=(8,), daemons=("distributed-random",), trials=4,
    )
    specs = campaign.specs()
    # Full-budget reference run, then shrink the *default* budget (not a
    # spec param — that would change keys, hence seeds) so the cell
    # splits into stabilizing and budget-exhausted replicates.
    reference = [execute_trial(s, campaign.seed, campaign.name) for s in specs]
    steps = [r["result"]["steps"] for r in reference]
    assert len(set(steps)) > 1, "seeds collapsed; pick another campaign seed"
    budget = min(steps)
    shrink_default_budget(monkeypatch, "unison", budget)
    expected = [
        execute_trial(spec, campaign.seed, campaign.name)
        for spec, full in zip(specs, reference)
        if full["result"]["steps"] <= budget
    ]
    assert 0 < len(expected) < len(specs)

    # The rerun path is gone: a batched cell must never fall back to
    # per-trial execution on budget exhaustion.  (The patch reaches
    # forked pool workers too — Linux fork copies the patched module.)
    def no_serial_rerun(spec, campaign_seed, campaign=""):
        raise AssertionError("budget-exhausted batch was re-run serially")

    monkeypatch.setattr("repro.engine.pool.execute_trial", no_serial_rerun)
    store = ResultStore(tmp_path / "ns.jsonl")
    with pytest.raises(NotStabilized):
        run_specs(
            specs, campaign.seed, campaign=campaign.name, store=store,
            workers=workers,
        )
    from repro.engine.store import _dump_line

    stored = set(store.path.read_text().splitlines())
    # Exactly the stabilizing siblings landed, byte-identical to their
    # serial records.
    assert stored == {_dump_line(r).rstrip("\n") for r in expected}


def test_not_stabilized_carries_partial_trials(monkeypatch):
    """``run_trial_batch`` attaches finished sibling Trials to the failure."""
    from repro.core.exceptions import NotStabilized
    from repro.harness.runner import run_trial

    campaign = Campaign(
        name="batch-partial", seed=53, algorithms=("unison",),
        topologies=("ring",), sizes=(8,), daemons=("distributed-random",),
        trials=4,
    )
    specs = campaign.specs()
    seeds = [derive_seed(campaign.seed, spec.key()) for spec in specs]
    full = run_trial_batch(specs, seeds)
    budget = min(t.steps for t in full)
    assert any(t.steps > budget for t in full)

    shrink_default_budget(monkeypatch, "unison", budget)
    with pytest.raises(NotStabilized) as excinfo:
        run_trial_batch(specs, seeds)
    partial = dict(excinfo.value.partial)
    expected = {i for i, t in enumerate(full) if t.steps <= budget}
    assert set(partial) == expected
    for i in expected:
        assert partial[i] == run_trial(specs[i], seeds[i])


def test_mixed_backend_cell_is_not_batched():
    """backend="dict" is excluded from cell_key, but a replicate that
    explicitly asks for the dict engine must still get it — a cell with
    any unbatchable replicate runs as single trials."""
    from repro.engine.campaign import TrialSpec
    from repro.engine.pool import _execution_units

    specs = [
        TrialSpec(algorithm="unison", topology="ring", n=8, trial=0),
        TrialSpec(
            algorithm="unison", topology="ring", n=8, trial=1,
            params=(("backend", "dict"),),
        ),
    ]
    assert specs[0].cell_key() == specs[1].cell_key()
    assert [kind for kind, _ in _execution_units(specs, batch=True)] == [
        "single", "single",
    ]


def test_cell_key_groups_replicates_only():
    campaign = Campaign(
        name="ck", seed=1, algorithms=("unison",), topologies=("ring",),
        sizes=(8, 10), daemons=("distributed-random", "synchronous"), trials=2,
    )
    specs = campaign.specs()
    cells = {}
    for spec in specs:
        cells.setdefault(spec.cell_key(), []).append(spec)
    assert len(cells) == 4  # 2 sizes × 2 daemons
    for cell in cells.values():
        assert sorted(s.trial for s in cell) == [0, 1]
        assert len({s.key() for s in cell}) == len(cell)


@pytest.mark.parametrize("batched", [True, False])
def test_execute_batch_returns_partial_records(monkeypatch, batched):
    """execute_batch returns the store records that landed alongside a
    budget failure — a batch's stabilizing siblings, or a serial
    fallback's trials before the failing one."""
    from repro.core.exceptions import NotStabilized, UnbatchableError

    campaign = Campaign(
        name="batch-pr", seed=53, algorithms=("unison",), topologies=("ring",),
        sizes=(8,), daemons=("distributed-random",), trials=4,
    )
    specs = campaign.specs()
    reference = [execute_trial(s, campaign.seed, campaign.name) for s in specs]
    budget = min(r["result"]["steps"] for r in reference)
    shrink_default_budget(monkeypatch, "unison", budget)
    steps = [full["result"]["steps"] for full in reference]
    if batched:
        expected = [r for r, s in zip(reference, steps) if s <= budget]
    else:
        def unbatchable(specs, seeds):
            raise UnbatchableError("cannot tile")

        monkeypatch.setattr("repro.harness.runner.run_trial_batch", unbatchable)
        first_bad = next(i for i, s in enumerate(steps) if s > budget)
        expected = reference[:first_bad]
    records, error, fallback = execute_batch(specs, campaign.seed, campaign.name)
    assert isinstance(error, NotStabilized)
    assert fallback is not batched
    assert records == expected
