"""Property: adversarial schedules replay identically on every backend.

A search runs on the kernel backend (it needs ``snapshot``/``restore``
and column potentials), but its product is backend-neutral: a list of
selections.  Feeding that list through
:class:`~repro.core.daemon.ScriptedDaemon` on the dict backend (the
reference interpreter) and on a fresh stepped kernel must reproduce the
original execution exactly — same steps, same moves, same rounds, same
final configuration hash.  This is the property that makes certificates
trustworthy evidence rather than self-reported numbers.
"""

from random import Random

import pytest

from repro.adversary.certificates import (
    certificate_from_daemon,
    config_digest,
    loads_certificate,
    dump_certificate,
    replay_certificate,
)
from repro.adversary.search import make_search_daemon
from repro.alliance.fga import FGA
from repro.core.daemon import ScriptedDaemon
from repro.core.simulator import Simulator
from repro.faults.scenarios import clock_gradient, clock_split
from repro.reset import SDR
from repro.topology import random_tree, ring
from repro.unison import Unison

STRATEGIES = ("greedy", "beam-2x2")


def scenarios():
    cases = []
    for n in (6, 9):
        sdr = SDR(Unison(ring(n)))
        cases.append((f"unison-split-n{n}", sdr,
                      clock_split(SDR(Unison(ring(n))))))
    net = random_tree(8, seed=3)
    sdr = SDR(Unison(net))
    cases.append(("unison-gradient-tree", sdr, clock_gradient(sdr)))
    fnet = ring(7)
    fga = SDR(FGA(fnet, 1, 1))
    cases.append(("fga-random", fga,
                  fga.random_configuration(Random(11))))
    return cases


def fresh_algorithm(name):
    if name.startswith("unison-split"):
        n = int(name.rsplit("n", 1)[1])
        return SDR(Unison(ring(n)))
    if name == "unison-gradient-tree":
        return SDR(Unison(random_tree(8, seed=3)))
    if name == "fga-random":
        return SDR(FGA(ring(7), 1, 1))
    raise AssertionError(name)


def search(name, algo, initial, strategy, max_steps=40):
    daemon = make_search_daemon(strategy)
    sim = Simulator(algo, daemon, config=initial.copy(), seed=0,
                    backend="kernel")
    result = sim.run(max_steps=max_steps)
    cert = certificate_from_daemon(
        daemon, algorithm=name, seed=0, initial=initial,
        final=sim.cfg, rounds=sim.rounds.completed,
    )
    return cert, result


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "name,algo,initial",
    scenarios(),
    ids=[c[0] for c in scenarios()],
)
class TestScheduleReplay:
    def test_dict_replay_matches(self, name, algo, initial, strategy):
        cert, _ = search(name, algo, initial, strategy)
        assert cert.steps > 0
        report = replay_certificate(
            cert, fresh_algorithm(name), initial.copy(), backend="dict")
        assert report.ok, (
            f"dict replay diverged: {report} vs header {cert.header()}")

    def test_kernel_replay_matches(self, name, algo, initial, strategy):
        cert, _ = search(name, algo, initial, strategy)
        report = replay_certificate(
            cert, fresh_algorithm(name), initial.copy(), backend="kernel")
        assert report.ok, (
            f"kernel replay diverged: {report} vs header {cert.header()}")

    def test_replay_reproduces_exact_trajectory(self, name, algo, initial,
                                                strategy):
        # Step the scripted replay manually and compare configurations
        # after every step, not just the endpoints.
        cert, _ = search(name, algo, initial, strategy)
        ref = Simulator(
            fresh_algorithm(name),
            ScriptedDaemon([dict(s) for s in cert.selections]),
            config=initial.copy(), seed=0, backend="dict")
        hashes = []
        for _ in range(cert.steps):
            ref.step()
            hashes.append(config_digest(ref.cfg))
        other = Simulator(
            fresh_algorithm(name),
            ScriptedDaemon([dict(s) for s in cert.selections]),
            config=initial.copy(), seed=0, backend="kernel")
        for i in range(cert.steps):
            other.step()
            assert config_digest(other.cfg) == hashes[i], f"step {i}"
        assert hashes[-1] == cert.final_hash

    def test_certificate_survives_serialization(self, name, algo, initial,
                                                strategy):
        cert, _ = search(name, algo, initial, strategy)
        revived = loads_certificate(dump_certificate(cert))
        report = replay_certificate(
            revived, fresh_algorithm(name), initial.copy(), backend="dict")
        assert report.ok
