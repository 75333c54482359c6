"""The benchmark's campaign workloads, each a function of the workload seed.

A workload is a list of :class:`~repro.engine.Campaign` grids run back to
back through :func:`repro.engine.run_campaign`, plus the execution
options ``python -m repro.harness sweep`` would pass (batching, worker
count, failure policy).  The workload seed is every campaign's master
seed; topology seeds stay fixed so the random graphs keep one shape and
the spread across workload seeds measures the engine, not the graph draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine import Campaign, FailurePolicy

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Workload"]

#: The workload seed whose grid-ordered record digests are pinned below.
DEFAULT_SEED = 0

#: Topology seed of every ``random`` graph in every workload.
TOPOLOGY_SEED = 3

#: Fault schedule of the supervised workload's replicated (batched) cells.
FAULTS = "burst=50,count=3,gap=100,k=2,scope=input"

#: Churn schedule of its serial cells: three crashes, then three joins.
CHURN = "every=40,count=3,crash=1;every=60,count=3,join=1"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: grids, execution options, pinned digest.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    campaigns: Callable[[int], list[Campaign]]
    batch: bool = True
    workers: int = 0
    policy: FailurePolicy | None = None
    #: SHA-256 of the grid-ordered records at :data:`DEFAULT_SEED`.
    digest: str | None = None


def _sweep_small(seed: int) -> list[Campaign]:
    common = dict(
        seed=seed,
        sizes=(16, 32),
        daemons=("distributed-random", "synchronous"),
        trials=6,
        topology_seed=TOPOLOGY_SEED,
    )
    return [
        Campaign("sweep-small/unison-boulinier",
                 algorithms=("unison", "boulinier"),
                 topologies=("ring", "random"), **common),
        Campaign("sweep-small/fga", algorithms=("fga",),
                 topologies=("ring",), **common),
    ]


def _kernel_large(seed: int) -> list[Campaign]:
    return [
        Campaign("kernel-large/fga", seed=seed, algorithms=("fga",),
                 topologies=("random",), sizes=(256,),
                 topology_seed=TOPOLOGY_SEED),
        Campaign("kernel-large/unison", seed=seed, algorithms=("unison",),
                 topologies=("ring",), sizes=(256,),
                 scenarios=("fake-wave",), daemons=("central",)),
        Campaign("kernel-large/boulinier", seed=seed,
                 algorithms=("boulinier",), topologies=("ring",),
                 sizes=(512,)),
    ]


def _supervised_recovery(seed: int) -> list[Campaign]:
    common = dict(
        seed=seed,
        algorithms=("unison", "fga"),
        topologies=("ring", "random"),
        topology_seed=TOPOLOGY_SEED,
    )
    return [
        Campaign("supervised/faults", sizes=(32, 64), trials=3,
                 params=(("faults", FAULTS),), **common),
        Campaign("supervised/churn", sizes=(32,), trials=2,
                 params=(("churn", CHURN),), **common),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep-small",
            _sweep_small,
            batch=False,
            digest="6645d95bd53b651d0b2a9ff90a86992f0e28c00905bea44fd8b5b6c9c00f7fd4",
        ),
        Workload(
            "kernel-large",
            _kernel_large,
            digest="3aca9aadbbe15fd1e289cf002ce1f130b1ee12818f3e63f4a162190ab6b263f3",
        ),
        Workload(
            "sweep-supervised-recovery",
            _supervised_recovery,
            workers=1,
            policy=FailurePolicy(trial_timeout=120.0),
            digest="3653e8e2f33a93d0bf8d1b88e721d416909d2c9ad94ea5817869b5aca32fbb6c",
        ),
    )
}
