"""Probes read the driver's predicate bits; no predicate is lowered twice.

The driver evaluates every declared predicate together with the guards,
once per step, and a predicate is lowered into that one generated
``evaluate`` function only: no registered rule set's source holds a
standalone predicate function.  A batched fault cell (its lanes carry
recovery and SDR-wave probes, and ``until`` names the legitimacy
predicate) and a serial trial measured by a ``StabilizationProbe`` run
one drive each, and their records are the ones the mask-evaluating
probes produced (pinned digests).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.kernel.engine import KernelRuntime
from repro.engine.campaign import TrialSpec
from repro.engine.store import _json_default
from repro.harness.runner import run_trial, run_trial_batch
from repro.ir.registry import SAMPLE_TOPOLOGIES, registered_algorithms

FAULTS = "burst=20,count=2,gap=40,k=2,scope=input"
SEEDS = [11, 12, 13]


def _spec(trial: int, **params) -> TrialSpec:
    return TrialSpec(algorithm="unison", topology="ring", n=16,
                     scenario="random", daemon="distributed-random",
                     trial=trial, params=tuple(params.items()))


def _digest(trials) -> str:
    h = hashlib.sha256()
    for trial in trials:
        h.update(json.dumps(dataclasses.asdict(trial), sort_keys=True,
                            default=_json_default).encode())
    return h.hexdigest()


@pytest.fixture
def drives(monkeypatch):
    """The number of drives run."""
    calls = {"drives": 0}
    drive = KernelRuntime.drive

    def counted_drive(self, *args, **kwargs):
        calls["drives"] += 1
        return drive(self, *args, **kwargs)

    monkeypatch.setattr(KernelRuntime, "drive", counted_drive)
    return calls


@pytest.mark.parametrize("topology", SAMPLE_TOPOLOGIES)
def test_no_rule_set_lowers_a_standalone_predicate(topology):
    for label, factory in registered_algorithms(topology):
        source = factory().rule_set().kernel_code().source
        assert "def pred_" not in source, label


def test_batched_fault_cell_reads_predicate_bits(drives):
    trials = run_trial_batch([_spec(t, faults=FAULTS) for t in range(3)], SEEDS)
    assert drives["drives"] == 1  # one tiled drive, three lanes
    assert all(t.extra["recovery"]["recovered"] == 2 for t in trials)
    assert _digest(trials) == (
        "5a555260099d22eba7ef67aa1942ae6e0e7f099e001563c7193c7c7254a53e31"
    )


def test_serial_stabilization_probe_reads_predicate_bits(drives):
    trial = run_trial(_spec(0), SEEDS[0])
    assert drives["drives"] == 1
    assert _digest([trial]) == (
        "38bac0d2c599c5cfc2c58aa4a896d1e2d5a4b7986322d5aef6a7a817acfa399a"
    )
