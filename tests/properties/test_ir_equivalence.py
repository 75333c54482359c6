"""Property regression: IR-generated programs are the kernel backend.

Every algorithm's kernel program is now *generated* from its declarative
rule set, bound to its network and values (``kernel_program()``).  This
suite pins the three
guarantees the redesign made:

* the generated programs are trace-equal to the dict backend for the
  algorithms that gained a kernel backend through the IR (BFS tree,
  leader election, their composition, the mono reset) — topologies ×
  daemons × seeds, byte for byte, exactly like the long-ported set in
  ``test_backend_equivalence.py``;
* every registered algorithm really does run through an IR-generated
  program (no handwritten numpy twin survives), and the simulator warns
  (once) when someone supplies one anyway;
* batched probe views re-localize ``opt_index`` columns, so a pointer
  probe observes trial-local process indices in every trial.
"""

from random import Random

import numpy as np
import pytest

from repro.baselines.bfs_tree import PARENT_VAR, BfsTree
from repro.baselines.leader_election import LeaderElection
from repro.baselines.mono_reset import MonoReset
from repro.core import Simulator, Trace, make_daemon
from repro.core.composition import Composition
from repro.core.kernel.batch import run_batch
from repro.ir.kernelc import IRKernelProgram
from repro.ir.registry import registered_algorithms
from repro.probes import Probe
from repro.topology import grid, random_connected, random_tree, ring
from repro.unison import Unison

DAEMONS = ("synchronous", "central", "distributed-random")

TOPOLOGIES = {
    "ring": lambda: ring(9),
    "grid": lambda: grid(3, 4),
    "random-tree": lambda: random_tree(11, seed=5),
    "random-connected": lambda: random_connected(10, p=0.35, seed=9),
}

#: The algorithms whose kernel backend exists *only* through the IR.
ALGORITHMS = {
    "bfs-tree": lambda net: BfsTree(net, root=1),
    "leader-election": lambda net: LeaderElection(net),
    "composition": lambda net: Composition(
        [BfsTree(net, root=0), LeaderElection(net)]
    ),
    "mono-reset": lambda net: MonoReset(Unison(net)),
}


def execute(factory, net, daemon_kind, seed, backend, max_steps=300):
    algo = factory(net)
    trace = Trace()
    sim = Simulator(
        algo,
        make_daemon(daemon_kind, net),
        config=algo.random_configuration(Random(seed)),
        seed=seed,
        backend=backend,
        probes=[trace],
    )
    result = sim.run(max_steps=max_steps)
    return {
        "steps": result.steps,
        "moves": result.moves,
        "rounds": result.rounds,
        "terminal": result.terminal,
        "moves_per_rule": dict(sim.moves_per_rule),
        "trace": [
            (rec.selection, rec.enabled_before, rec.enabled_after, rec.rounds_completed)
            for rec in trace
        ],
        "final": sim.cfg.snapshot(),
    }


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("daemon", DAEMONS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_ir_backend_identical_traces(topology, daemon, algorithm):
    net = TOPOLOGIES[topology]()
    factory = ALGORITHMS[algorithm]
    for seed in (0, 1):
        reference = execute(factory, net, daemon, seed, "dict")
        kernel = execute(factory, net, daemon, seed, "kernel")
        assert kernel == reference, (
            f"IR backend divergence: {algorithm} on {topology} under "
            f"{daemon}, seed {seed}"
        )


# ----------------------------------------------------------------------
# No handwritten twin survives
# ----------------------------------------------------------------------

def test_every_registered_kernel_program_is_ir_generated():
    for label, factory in registered_algorithms():
        program = factory().kernel_program()
        assert isinstance(program, IRKernelProgram), (
            f"{label}: kernel program is not IR-generated"
        )


# ----------------------------------------------------------------------
# Batched probes see trial-local pointers
# ----------------------------------------------------------------------

class _PointerProbe(Probe):
    """Records every parent-pointer column a batched trial shows it."""

    name = "pointer-probe"

    def __init__(self):
        self.seen = []

    def wants_decode(self):
        return False

    def on_columns(self, view):
        self.seen.append([int(v) for v in view.cols[PARENT_VAR]])


def test_batch_probe_views_localize_opt_index_columns():
    net = ring(8)
    n = net.n
    trials = 3
    algo = BfsTree(net, root=1)
    program = algo.kernel_program()
    # Identical trials: every probe must then observe identical blocks —
    # which only holds if trial t's globalized pointers (+t·n) are
    # re-localized before the probe sees them.
    cfgs = [algo.random_configuration(Random(7)) for _ in range(trials)]
    daemons = [make_daemon("distributed-random", net) for _ in range(trials)]
    rngs = [Random(13) for _ in range(trials)]
    probes = [[_PointerProbe()] for _ in range(trials)]

    run_batch(
        program, cfgs, daemons, rngs, net,
        max_steps=200, probes=probes,
    )

    first = probes[0][0].seen
    assert first, "probe observed nothing"
    for t in range(trials):
        seen = probes[t][0].seen
        assert all(
            -1 <= v < n for step in seen for v in step
        ), f"trial {t} saw non-local pointers"
        assert seen == first, f"trial {t} diverged from trial 0"
