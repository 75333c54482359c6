"""Traced runs: spans around the program's layer entry points.

:func:`installed` patches the public entry points of each layer with a
wrapper that records a span (name, start, end, parent span) and, for the
fused kernel loop, the steps and moves it executed.  Spans stay in memory.
Supervised campaigns fork one worker process per unit; a forked worker
inherits the tracer, starts an empty span list whose first span's parent
is the parent's open ``pool.supervised`` span, and spills its spans to a
file in the pass directory before it exits.  :meth:`Tracer.gather`
merges those files back, so self times cover the children's work too.

Layer self time is a span's duration minus the part its direct child
spans cover.  Nothing here changes what the program computes: the
records of a traced pass are byte-identical to an untraced one.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["LAYERS", "Tracer", "installed"]

#: Span names of the program's layers.  Their self times should account
#: for nearly all of a traced pass; what is left is the campaign engine's
#: own glue (the ``engine`` root span's self time).
LAYERS = (
    "topology.build",
    "topology.diameter",
    "ir.compile",
    "simulator.init",
    "runner",
    "kernel.run",
    "batch.run",
    "store.append",
    "events.emit",
    "pool.supervised",
    "pool.child",
)


class Tracer:
    """Spans and counts of one process, kept in memory until gathered."""

    def __init__(self, spill_dir: str | os.PathLike):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.seq = 0
        #: ``(id, parent id, name, start, end)``; ids are ``(pid, seq)``.
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.counts: Counter = Counter()

    def _open(self) -> tuple:
        self.seq += 1
        sid = (self.pid, self.seq)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: tuple, parent: tuple | None, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``after(result)`` (optional) runs on the result, outside the
        span, to add counts.
        """

        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    # ------------------------------------------------------------------
    # Forked workers
    # ------------------------------------------------------------------
    def start_child(self) -> None:
        """In a freshly forked worker: keep the stack, drop inherited spans."""
        self.pid = os.getpid()
        self.seq = 0
        self.spans = []
        self.counts = Counter()

    def spill(self) -> None:
        """Write this worker's spans and counts for the parent to gather."""
        path = self.spill_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def gather(self) -> None:
        """Merge (and delete) every worker's spill file."""
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            for sid, parent, name, start, end in data["spans"]:
                self.spans.append(
                    (tuple(sid), tuple(parent) if parent else None, name, start, end)
                )
            self.counts.update(data["counts"])

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        covered: dict[tuple, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - covered[sid]
        return dict(out)

    def calls(self) -> Counter:
        """Number of spans per name."""
        return Counter(name for _, _, name, _, _ in self.spans)


def _count_kernel(tracer: Tracer):
    def after(result) -> None:
        tracer.counts["kernel.steps"] += result.steps
        tracer.counts["kernel.moves"] += result.moves
        tracer.counts["kernel.evaluated"] += result.steps * len(result.moves_per_process)

    return after


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer entry point for the block; restore afterwards."""
    import repro.core.kernel.batch as batch_mod
    import repro.engine.pool as pool_mod
    import repro.harness.runner as runner_mod
    from repro.core.graph import Network
    from repro.core.kernel.engine import KernelRuntime
    from repro.core.simulator import Simulator
    from repro.engine.store import ResultStore
    from repro.ir.rules import RuleSet
    from repro.telemetry.events import EventSink

    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError(
            "traced runs gather supervised workers' spans through fork; "
            f"this interpreter starts processes by "
            f"{multiprocessing.get_start_method()!r}"
        )

    child_fn = pool_mod._supervised_worker

    def supervised_worker(conn, args):
        tracer.start_child()
        try:
            tracer.wrap("pool.child", child_fn)(conn, args)
        finally:
            tracer.spill()

    patches = [
        (runner_mod, "by_name", tracer.wrap("topology.build", runner_mod.by_name)),
        (Network, "diameter",
         property(tracer.wrap("topology.diameter", Network.diameter.fget))),
        (RuleSet, "compile_kernel", tracer.wrap("ir.compile", RuleSet.compile_kernel)),
        (Simulator, "__init__", tracer.wrap("simulator.init", Simulator.__init__)),
        (KernelRuntime, "run",
         tracer.wrap("kernel.run", KernelRuntime.run, _count_kernel(tracer))),
        (batch_mod, "run_batch", tracer.wrap("batch.run", batch_mod.run_batch)),
        (ResultStore, "append", tracer.wrap("store.append", ResultStore.append)),
        (EventSink, "emit", tracer.wrap("events.emit", EventSink.emit)),
        (pool_mod, "execute_trial", tracer.wrap("runner", pool_mod.execute_trial)),
        (runner_mod, "run_trial_batch",
         tracer.wrap("runner", runner_mod.run_trial_batch)),
        (pool_mod, "_run_supervised",
         tracer.wrap("pool.supervised", pool_mod._run_supervised)),
        (pool_mod, "_supervised_worker", supervised_worker),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
