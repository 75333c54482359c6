"""Campaign benchmark: trials/s and moves/s of ``repro.engine`` sweeps.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``BENCHMARK.json`` lists the
workloads and the metrics; :mod:`perfbench.bench` is the measurement
loop, :mod:`perfbench.workloads` the grids, :mod:`perfbench.checks` the
output checks, :mod:`perfbench.hostspeed` the host-speed calibration and
:mod:`perfbench.tracing` the traced per-layer run.  Its own tests run
with ``python -m pytest perfbench``.
"""
