"""Scenario: clock synchronization in a sensor grid with transient faults.

A 5×5 mesh of anonymous sensors runs the self-stabilizing unison
``U ∘ SDR`` as its slot-synchronization layer (the dynamic-specification
use case from the paper's introduction).  Radiation bursts periodically
corrupt a handful of nodes' registers — clocks *and* the reset layer's own
variables.  The demo shows each burst being absorbed: the cooperative
resets stay near the damage, and the grid re-synchronizes within the 3n
round bound every time.

Run:  python examples/clock_sync_sensor_grid.py
"""

from random import Random

from repro import DistributedRandomDaemon, SDR, Simulator, Unison, topology
from repro.analysis import bounds
from repro.core import measure_stabilization
from repro.faults import FaultPlan
from repro.harness.experiments import SdrMoveCounter
from repro.unison import safety_holds


def show_clocks(net, cfg, cols: int = 5) -> None:
    for row_start in range(0, net.n, cols):
        row = cfg.variable("c")[row_start : row_start + cols]
        print("   ", " ".join(f"{c:2d}" for c in row))


def main() -> None:
    net = topology.grid(5, 5)
    sdr = SDR(Unison(net))
    rng = Random(99)
    plan = FaultPlan(k=3, clustered=True)  # bursts hit one physical area

    cfg = sdr.initial_configuration()
    print(f"sensor grid: {net}, unison period K={sdr.input.period}\n")

    for burst in range(1, 4):
        cfg, victims = plan.apply(sdr, cfg, rng)
        print(f"burst {burst}: transient fault hits sensors {sorted(victims)}")

        counter = SdrMoveCounter(net.n)
        sim = Simulator(
            sdr, DistributedRandomDaemon(0.5), config=cfg, seed=burst,
            probes=[counter],
        )
        detector, _ = measure_stabilization(sim, sdr.is_normal)
        print(
            f"  recovered in {detector.rounds} rounds "
            f"(bound {bounds.sdr_rounds_bound(net.n)}), "
            f"{detector.moves} moves; "
            f"{counter.touched}/{net.n} sensors took part in a reset"
        )

        # Normal operation between bursts: everything stays safe.
        sim.run(max_steps=120)
        assert safety_holds(net, sim.cfg, sdr.input.period)
        print("  clocks after resynchronization:")
        show_clocks(net, sim.cfg)
        cfg = sim.cfg
        print()

    print("three bursts absorbed; the grid never needed outside help.")


if __name__ == "__main__":
    main()
