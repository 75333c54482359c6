"""Differential property: the guard memo never changes what a step sees.

:class:`~repro.core.kernel.engine.KernelRuntime` evaluates its program
through a :class:`~repro.ir.kernelc.Memo`: each step marks the columns
whose values its rules' actions changed (what each ``apply`` returns),
and the generated ``evaluate`` recomputes only the signature blocks
those columns reach.
For every registered rule set, on a ring and a random graph, under the
central, distributed-random and synchronous daemons, with no
disturbance, a fault schedule or a churn schedule, and with ``T`` of one
to four lanes side by side, the runtime's memoised guard masks and
predicate masks must equal a dense ``program.evaluate`` of the same
columns after every driver step.  Lanes stop at staggered steps, so a
batch's trailing blocks freeze and are compacted away mid-drive (the
program is re-tiled and the memo starts over).  Churn cells run one lane:
churn edits the one shared ``Network``, so churn trials never batch.
"""

from random import Random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import make_daemon
from repro.core.kernel.daemons import vectorize
from repro.core.kernel.engine import KernelRuntime, Lane, live_masks
from repro.faults.churn import parse_churn
from repro.faults.schedule import parse_schedule
from repro.ir.registry import SAMPLE_TOPOLOGIES, registered_algorithms
from repro.probes import Probe
from repro.probes.view import ColumnView

DAEMONS = ("central", "distributed-random", "synchronous")

FAULTS = "burst=4,count=3,gap=9,k=2"
CHURN = "burst=5,count=2,gap=8,drop_edge=1;at=11,add_edge=1;at=15,crash=1;at=24,join=1"

MAX_STEPS = 60

LABELS = [label for label, _ in registered_algorithms()]


class MemoCheck(Probe):
    """Stops its lane after ``stop_at`` steps; on every step (once for
    all lanes) compares the runtime's memoised evaluation with a dense
    one."""

    def __init__(self, runtime, lanes, stop_at, checked):
        self.runtime = runtime
        self.lanes = lanes
        self.stop_at = stop_at
        self.checked = checked
        self.steps = 0

    def wants_decode(self) -> bool:
        return False

    def on_columns(self, view) -> None:
        self.steps = view.steps
        if (view.phase, view.steps) in self.checked:
            return
        self.checked.add((view.phase, view.steps))
        runtime, frame = self.runtime, view.frame
        blocks = frame.starts.shape[0]
        program = (runtime.program if blocks == self.lanes
                   else runtime.base.tiled(blocks))
        masks, preds = program.evaluate(frame.read)
        masks = live_masks(masks, frame.live)
        where = f"{view.phase} at step {view.steps} ({blocks} blocks)"
        assert runtime._masks.keys() == masks.keys(), where
        for rule, mask in masks.items():
            assert np.array_equal(runtime._masks[rule], mask), (rule, where)
        assert runtime._preds.keys() == preds.keys(), where
        for name, mask in preds.items():
            assert np.array_equal(runtime._preds[name], mask), (name, where)

    def done(self) -> bool:
        return self.steps >= self.stop_at


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    label=st.sampled_from(LABELS),
    topology=st.sampled_from(SAMPLE_TOPOLOGIES),
    daemon=st.sampled_from(DAEMONS),
    disturbance=st.sampled_from((None, "faults", "churn")),
    lanes=st.integers(1, 4),
    stops=st.lists(st.integers(0, MAX_STEPS), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_memoised_evaluation_equals_dense(label, topology, daemon, disturbance,
                                          lanes, stops, seed):
    if disturbance == "churn":
        lanes = 1
    algo = dict(registered_algorithms(topology))[label]()
    network, program = algo.network, algo.kernel_program()
    cfgs = [algo.random_configuration(Random(seed + t)) for t in range(lanes)]
    runtime = (KernelRuntime(program, cfgs[0]) if lanes == 1
               else KernelRuntime.tiled(program, cfgs))
    assert runtime is not None and runtime._memo is not None
    checked: set = set()
    lane_list = []
    for t in range(lanes):
        schedules = ()
        if disturbance == "faults":
            schedules = (parse_schedule(FAULTS).bind(algo, default_seed=seed + t),)
        elif disturbance == "churn":
            schedules = (None, parse_churn(CHURN).bind(algo, default_seed=seed))
        lane_list.append(Lane(
            t, vectorize(make_daemon(daemon, network), network),
            Random(seed + t),
            probes=[MemoCheck(runtime, lanes, stops[t], checked)],
            view=ColumnView(program, trial=t),
            schedules=schedules,
        ))
    runtime.drive(lane_list, max_steps=MAX_STEPS)
    assert checked
