"""Per-process setup memo: trials that share a topology and an algorithm
share everything a run cannot change, and records never notice.

``run_trial`` and ``run_trial_batch`` take their ``(Network, algorithm)``
from one bounded memo keyed by (entry ``build``, topology, n, topology
seed, build params).  Churn edits its network in place, so churn trials
build their own.  Rule sets and their generated code come from the
per-process shape cache, whatever the trial: one compile per shape.
"""

import dataclasses
import json

import pytest

import repro.ir.kernelc as kernelc
import repro.ir.rules as rules
from repro.core.algorithm import Algorithm
from repro.core.exceptions import NotStabilized
from repro.engine.campaign import Campaign, TrialSpec
from repro.engine.pool import run_specs
from repro.harness import runner
from repro.harness.runner import ALGORITHMS, run_trial, run_trial_batch
from repro.topology import by_name

CHURN = (
    "burst=30,count=2,gap=40,drop_edge=1;at=150,add_edge=1;"
    "burst=50,count=2,gap=30,crash=1;at=120,join=2"
)


def plain_campaign(**overrides) -> Campaign:
    fields = dict(
        name="memo", seed=13, algorithms=("unison",), topologies=("random",),
        sizes=(12,), trials=3, topology_seed=2,
    )
    fields.update(overrides)
    return Campaign(**fields)


def record_bytes(campaign: Campaign) -> list[str]:
    records = run_specs(campaign.specs(), campaign.seed, batch=False)
    return [json.dumps(r, sort_keys=True, default=str) for r in records]


@pytest.fixture(autouse=True)
def cold_memo():
    runner._shared_setup.cache_clear()
    yield
    runner._shared_setup.cache_clear()


def test_churn_cell_leaves_the_shared_network_untouched():
    cold = record_bytes(plain_campaign())
    runner._shared_setup.cache_clear()
    churned = plain_campaign(params=(("churn", CHURN),))
    run_specs(churned.specs(), churned.seed, batch=False)
    assert record_bytes(plain_campaign()) == cold

    spec = plain_campaign().specs()[0]
    network, _, topology = runner._setup(ALGORITHMS["unison"], spec, ())
    fresh = by_name("random", 12, seed=2)
    assert list(network.edges()) == list(fresh.edges())
    assert network.m == fresh.m
    assert network.diameter == fresh.diameter
    assert topology == (12, fresh.m, fresh.diameter, fresh.max_degree)


def test_trials_of_one_cell_share_network_and_algorithm(monkeypatch):
    seen = []
    run_built = runner._run_built

    def spy(entry, algorithm, setup, **kwargs):
        network, algo, _ = built = setup()
        seen.append((network, algo))
        return run_built(entry, algorithm, lambda: built, **kwargs)

    monkeypatch.setattr(runner, "_run_built", spy)
    first, second = plain_campaign().specs()[:2]
    run_trial(first, seed=1)
    run_trial(second, seed=2)
    (net_a, algo_a), (net_b, algo_b) = seen
    assert net_a is net_b and algo_a is algo_b


@pytest.fixture
def compiles(monkeypatch):
    """Names of the rule sets whose kernels get generated from here on,
    starting from an empty shape cache, as in a fresh process."""
    calls = []
    compile_rule_set = kernelc.compile_rule_set

    def counting(rule_set):
        calls.append(rule_set.name)
        return compile_rule_set(rule_set)

    monkeypatch.setattr(kernelc, "compile_rule_set", counting)
    monkeypatch.setattr(rules, "_SHAPES", {})
    return calls


def test_rule_set_compiles_once_per_shape(compiles):
    campaign = plain_campaign(algorithms=("unison", "fga"),
                              topologies=("ring", "random"), sizes=(8,))
    assert campaign.size == 12
    run_specs(campaign.specs(), campaign.seed, batch=False)
    # One per shape: U∘SDR with K = 9, and FGA∘SDR on any network.
    assert compiles == ["sdr(unison)", "sdr(fga)"]


def test_serial_batched_and_churn_trials_of_one_shape_compile_once(
    compiles, monkeypatch
):
    programs = []
    compile_kernel = rules.RuleSet.compile_kernel

    def bind(rule_set, network, params=None):
        programs.append(network)
        return compile_kernel(rule_set, network, params)

    monkeypatch.setattr(rules.RuleSet, "compile_kernel", bind)
    spec = TrialSpec("unison", "random", 12, topology_seed=2)
    run_trial(spec, seed=1)
    cell = [dataclasses.replace(spec, trial=t) for t in range(3)]
    assert len(run_trial_batch(cell, [1, 2, 3])) == 3
    # A churn trial builds its own network and algorithm, but not its
    # own rule set.
    run_trial(dataclasses.replace(spec, params=(("churn", CHURN),)), seed=1)
    assert compiles == ["sdr(unison)"]
    # Three programs (serial, batched, churn) bound two networks.
    assert len(programs) == 3 and len({id(net) for net in programs}) == 2

    # U∘SDR at a second size is a second shape (K = n + 1).
    run_trial(dataclasses.replace(spec, n=16), seed=1)
    assert compiles == ["sdr(unison)", "sdr(unison)"]


def test_every_simulator_owns_its_program_and_csr(monkeypatch):
    programs = []
    kernel_program = Algorithm.kernel_program

    def spy(self):
        program = kernel_program(self)
        programs.append(program)
        return program

    monkeypatch.setattr(Algorithm, "kernel_program", spy)
    for spec in plain_campaign().specs():
        run_trial(spec, seed=spec.trial)
    assert len(programs) == 3
    assert len({id(p) for p in programs}) == 3
    assert len({id(p.csr) for p in programs}) == 3
    assert len({id(p.rule_set) for p in programs}) == 1


def test_patched_registry_entry_is_not_served_stale(monkeypatch):
    spec = TrialSpec("unison", "ring", 8, "gradient")
    run_trial(spec, seed=3)  # warm the memo for the registered entry

    builds = []
    entry = ALGORITHMS["unison"]

    def build(network, **params):
        builds.append(network)
        return entry.build(network, **params)

    monkeypatch.setitem(
        ALGORITHMS, "unison", dataclasses.replace(entry, build=build, label="patched")
    )
    assert run_trial(spec, seed=3).algorithm == "patched"
    assert len(builds) == 1

    # Same build, smaller default budget: the memo hit still runs the
    # entry the registry holds now.
    monkeypatch.setitem(
        ALGORITHMS, "unison", dataclasses.replace(entry, max_steps=2)
    )
    with pytest.raises(NotStabilized):
        run_trial(spec, seed=3)
