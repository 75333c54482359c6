"""Per-process setup memo: trials that share a topology and an algorithm
share everything a run cannot change, and records never notice.

``run_trial`` and ``run_trial_batch`` take their ``(Network, algorithm)``
from one bounded memo keyed by (entry ``build``, topology, n, topology
seed, build params); the algorithm builds its rule set once.  Churn
edits its network in place, so churn trials build their own.
"""

import dataclasses
import json

import pytest

import repro.ir.kernelc as kernelc
from repro.core.algorithm import Algorithm
from repro.core.exceptions import NotStabilized
from repro.engine.campaign import Campaign, TrialSpec
from repro.engine.pool import run_specs
from repro.harness import runner
from repro.harness.runner import ALGORITHMS, run_trial
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

    def spy(entry, algorithm, network, algo, *args, **kwargs):
        seen.append((network, algo))
        return run_built(entry, algorithm, network, algo, *args, **kwargs)

    monkeypatch.setattr(runner, "_run_built", spy)
    first, second = plain_campaign().specs()[:2]
    run_trial(first, seed=1)
    run_trial(second, seed=2)
    (net_a, algo_a), (net_b, algo_b) = seen
    assert net_a is net_b and algo_a is algo_b


def test_rule_set_compiles_once_per_setup(monkeypatch):
    calls = []
    compile_rule_set = kernelc.compile_rule_set

    def counting(rule_set):
        calls.append(rule_set.name)
        return compile_rule_set(rule_set)

    monkeypatch.setattr(kernelc, "compile_rule_set", counting)
    campaign = plain_campaign(algorithms=("unison", "fga"),
                              topologies=("ring", "random"), sizes=(8,))
    assert campaign.size == 12
    run_specs(campaign.specs(), campaign.seed, batch=False)
    assert len(calls) == 4  # (entry, topology) pairs; one n, no params


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
