"""Binding refuses values a composite key cannot hold.

FGA's ``bestPtr`` key ``id·N + v`` and leader election's claim key
``lid·n + (n − 1 − dist)`` must fit int64.  The rule sets hold no
values, so the refusal happens when a program binds a network's
identifiers (``tile_check`` at one copy): ``kernel_program()`` is
``None``, ``backend="auto"`` runs the dict engine and
``backend="kernel"`` raises.  Tiling asks again, for every process of
the tiled layout.
"""

import numpy as np
import pytest

from repro.alliance.fga import FGA
from repro.baselines.leader_election import LeaderElection
from repro.core import Simulator, make_daemon
from repro.core.exceptions import AlgorithmError
from repro.reset.sdr import SDR
from repro.topology import by_name

_NO_KEY = np.iinfo(np.int64).max


def fga_sdr(first_id):
    net = by_name("ring", 8).with_ids([first_id + i for i in range(8)])
    return SDR(FGA(net, 1, 1))


def leader(first_id):
    net = by_name("ring", 8).with_ids([first_id + i for i in range(8)])
    return LeaderElection(net)


@pytest.mark.parametrize("algo", [
    fga_sdr(_NO_KEY // 9), leader(2**62), fga_sdr(2**63), leader(2**63),
], ids=["fga-sdr", "leader-election", "fga-sdr-beyond-int64",
        "leader-election-beyond-int64"])
def test_overflowing_ids_keep_the_dict_engine(algo):
    assert algo.rule_set() is not None
    assert algo.kernel_program() is None
    daemon = make_daemon("distributed-random", algo.network)
    sim = Simulator(algo, daemon, seed=0, backend="auto")
    assert sim.backend == "dict"
    sim.run(max_steps=20)
    with pytest.raises(AlgorithmError):
        Simulator(algo, daemon, seed=0, backend="kernel")


@pytest.mark.parametrize("make,first_id", [
    (fga_sdr, _NO_KEY // 10), (leader, 2**62 // 16),
], ids=["fga-sdr", "leader-election"])
def test_ids_that_fit_bind_a_kernel(make, first_id):
    algo = make(first_id)
    assert algo.kernel_program() is not None
    sim = Simulator(algo, make_daemon("synchronous", algo.network), seed=0,
                    backend="auto")
    assert sim.backend == "kernel"


def test_fga_tiling_counts_every_process_of_the_layout():
    # id·N + v fits for the 8 processes of one copy, but not for the
    # N = 24 of three tiled copies.
    program = fga_sdr(_NO_KEY // 20).kernel_program()
    assert program is not None
    assert program.tiled(2) is not None
    assert program.tiled(3) is None
