"""Deterministic failure injection for pool-robustness tests.

The supervised executor (:mod:`repro.engine.pool`) must survive worker
crashes and runaway trials; proving that in CI needs a way to make a
*specific* trial crash or hang on demand, in a real worker process,
without test-only code paths in the executor itself.  The hook is an
environment variable read by every supervised worker before every unit:

``REPRO_CHAOS`` — ``;``-separated directives of the form
``<action>:<key-substring>[:<times>]``:

* ``crash:unison`` — any worker handed a unit that contains a trial key
  with substring ``unison`` dies with SIGKILL before executing it;
* ``timeout:trial=2`` — the matching worker hangs (sleeps an hour), so
  the parent's deadline fires;
* ``crash:unison:1`` — only the first matching unit trips (so a retry
  then succeeds).  The once-only bookkeeping needs ``REPRO_CHAOS_DIR``
  (a scratch directory shared by the worker processes); without it,
  ``times`` is ignored and every match trips.

The variable is unset in normal operation, costing one ``os.environ``
lookup per unit.  Chaos is injected *before* the unit's trials execute,
so a tripped unit can never have landed partial results.
"""

from __future__ import annotations

import os
import signal
import time

__all__ = ["trip"]


def trip(keys) -> None:
    """Crash or hang this process if ``REPRO_CHAOS`` matches a trial key."""
    raw = os.environ.get("REPRO_CHAOS")
    if not raw:
        return
    for directive in raw.split(";"):
        parts = directive.strip().split(":")
        if len(parts) < 2 or not parts[1]:
            continue
        action, substring = parts[0].strip(), parts[1]
        if action not in ("crash", "timeout"):
            continue
        if not any(substring in key for key in keys):
            continue
        times = int(parts[2]) if len(parts) > 2 and parts[2] else None
        if times is not None and not _claim(action, substring, times):
            continue
        if action == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(3600)  # "timeout": outlive any sane deadline


def _claim(action: str, substring: str, times: int) -> bool:
    """Atomically claim one of ``times`` trip slots via marker files."""
    scratch = os.environ.get("REPRO_CHAOS_DIR")
    if not scratch:
        return True
    safe = "".join(c if c.isalnum() else "_" for c in substring)
    for i in range(times):
        path = os.path.join(scratch, f"chaos-{action}-{safe}-{i}")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            continue
    return False
