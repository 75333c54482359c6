"""Registry of every IR-defined algorithm, for the ``repro.ir check`` lint.

Each entry is a factory returning a representative :class:`Algorithm`
instance (on a small, non-trivial sample network) whose
:meth:`~repro.core.algorithm.Algorithm.rule_set` is the IR definition
under check.  The lint (:mod:`repro.ir.check`) compiles both backends of
every entry and machine-checks them against the algorithm's native dict
implementation, once per :data:`SAMPLE_TOPOLOGIES` family.
"""

from __future__ import annotations

__all__ = ["SAMPLE_TOPOLOGIES", "registered_algorithms"]

#: The sample network families: irregular degrees (``reduceat`` over
#: uneven CSR rows), then a ring (the stride-regular CSR layout).
SAMPLE_TOPOLOGIES = ("random", "ring")


def registered_algorithms(topology: str = "random"):
    """``(label, factory)`` pairs covering every registered rule set, each
    building its algorithm on a 9-process ``topology`` network."""
    from ..alliance.fga import FGA
    from ..alliance.turau import TurauMIS
    from ..baselines.bfs_tree import BfsTree
    from ..baselines.leader_election import LeaderElection
    from ..baselines.mono_reset import MonoReset
    from ..core.composition import Composition
    from ..reset.sdr import SDR
    from ..topology import by_name
    from ..unison.boulinier import BoulinierUnison
    from ..unison.unison import Unison

    def net():
        return by_name(topology, 9, seed=11)

    return [
        ("unison", lambda: Unison(net())),
        ("boulinier", lambda: BoulinierUnison(net())),
        ("turau-mis", lambda: TurauMIS(net())),
        ("fga", lambda: FGA(net(), 1, 1)),
        ("sdr(unison)", lambda: SDR(Unison(net()))),
        ("sdr(fga)", lambda: SDR(FGA(net(), 1, 1))),
        ("mono-reset(unison)", lambda: MonoReset(Unison(net()))),
        ("bfs-tree", lambda: BfsTree(net(), root=2)),
        ("leader-election", lambda: LeaderElection(net())),
        (
            "composition(bfs-tree, leader-election)",
            lambda: (lambda network: Composition(
                [BfsTree(network, root=0), LeaderElection(network)]
            ))(net()),
        ),
    ]
