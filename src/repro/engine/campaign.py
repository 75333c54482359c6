"""Declarative experiment campaigns and trial descriptors.

A :class:`Campaign` is a parameter grid — (algorithm × topology × size ×
scenario × daemon × trial-replicate) — plus a master seed.  Expanding it
yields :class:`TrialSpec` descriptors: small, picklable, hashable value
objects that fully determine one stabilization measurement.  The canonical
string key of a descriptor names its result record in the store and feeds
the deterministic seed derivation (:mod:`repro.engine.seeds`), so the same
grid always maps to the same trials regardless of execution order or
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .seeds import derive_seed

__all__ = ["TrialSpec", "Campaign"]

#: Params that select *how* a trial executes, not *what* it measures —
#: excluded from the canonical key (and hence from seed derivation) and
#: from the rendered record, so ``backend=kernel`` and ``backend=dict``
#: runs of one grid write byte-identical records and deduplicate against
#: each other on resume.
EXECUTION_OPTIONS = frozenset({"backend"})


def _freeze_params(params: Mapping[str, Any] | Iterable[tuple[str, Any]] | None) -> tuple[tuple[str, Any], ...]:
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    frozen = tuple(sorted((str(k), v) for k, v in items))
    for key, value in frozen:
        if not isinstance(value, (int, float, str, bool, type(None))):
            raise TypeError(
                f"campaign param {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
    return frozen


@dataclass(frozen=True)
class TrialSpec:
    """Descriptor of one trial: everything needed to reproduce it.

    ``trial`` is the replicate index within a grid cell; the actual PRNG
    seed is *derived*, never stored here, so a spec is pure description.
    ``params`` carries algorithm-specific extras (``period``, ``alpha``,
    ``instance`` …) as a sorted tuple of pairs to stay hashable.
    """

    algorithm: str
    topology: str
    n: int
    scenario: str = "random"
    daemon: str = "distributed-random"
    trial: int = 0
    topology_seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    # ------------------------------------------------------------------
    def _identity(self, include_trial: bool) -> str:
        """One renderer for both identity strings, so they cannot drift:
        a field added to the identity joins every key (or deliberately
        only one, here, in a single visible place)."""
        parts = [
            f"algorithm={self.algorithm}",
            f"topology={self.topology}",
            f"n={self.n}",
            f"scenario={self.scenario}",
            f"daemon={self.daemon}",
        ]
        if include_trial:
            parts.append(f"trial={self.trial}")
        parts.append(f"topology_seed={self.topology_seed}")
        measured = self._measured_params()
        if measured:
            rendered = ",".join(f"{k}:{v}" for k, v in measured)
            parts.append(f"params={rendered}")
        return "|".join(parts)

    def key(self) -> str:
        """Canonical identity string — the store key and seed-hash input.

        Execution options (:data:`EXECUTION_OPTIONS`) are not part of the
        identity: they change wall time, never the measurement.
        """
        return self._identity(include_trial=True)

    def cell_key(self) -> str:
        """Identity of the grid *cell* — the key minus the replicate index.

        Trials sharing a cell key differ only in their seed, which is what
        makes them batchable: the executor runs a whole cell as one
        vectorized multi-trial simulation (see :mod:`repro.engine.pool`)
        with results record-identical to serial execution.
        """
        return self._identity(include_trial=False)

    def kwargs(self) -> dict[str, Any]:
        """The extra params as a plain dict (for ``**`` expansion)."""
        return dict(self.params)

    def _measured_params(self) -> list[tuple[str, Any]]:
        """The params that shape the measurement: all but the execution
        options (:data:`EXECUTION_OPTIONS`)."""
        return [(k, v) for k, v in self.params if k not in EXECUTION_OPTIONS]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The spec as a store record renders it: execution options are
        dropped, as from :meth:`key`, so a record never depends on the
        engine that produced it."""
        return {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "n": self.n,
            "scenario": self.scenario,
            "daemon": self.daemon,
            "trial": self.trial,
            "topology_seed": self.topology_seed,
            "params": dict(self._measured_params()),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialSpec":
        return cls(
            algorithm=data["algorithm"],
            topology=data["topology"],
            n=int(data["n"]),
            scenario=data.get("scenario", "random"),
            daemon=data.get("daemon", "distributed-random"),
            trial=int(data.get("trial", 0)),
            topology_seed=int(data.get("topology_seed", 0)),
            params=_freeze_params(data.get("params")),
        )


def _tuple_of(values: Any, kind: type) -> tuple:
    if isinstance(values, (str, int)):
        values = (values,)
    return tuple(kind(v) for v in values)


@dataclass(frozen=True)
class Campaign:
    """A named parameter grid with a master seed.

    Expansion order is the deterministic cross product
    ``algorithms × topologies × sizes × scenarios × daemons × trials`` —
    but nothing downstream depends on that order: identity and seeds come
    from each spec's canonical key.
    """

    name: str
    seed: int
    algorithms: Sequence[str] = ("unison",)
    topologies: Sequence[str] = ("ring",)
    sizes: Sequence[int] = (8,)
    scenarios: Sequence[str] = ("random",)
    daemons: Sequence[str] = ("distributed-random",)
    trials: int = 1
    topology_seed: int = 0
    params: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", _tuple_of(self.algorithms, str))
        object.__setattr__(self, "topologies", _tuple_of(self.topologies, str))
        object.__setattr__(self, "sizes", _tuple_of(self.sizes, int))
        object.__setattr__(self, "scenarios", _tuple_of(self.scenarios, str))
        object.__setattr__(self, "daemons", _tuple_of(self.daemons, str))
        object.__setattr__(self, "params", _freeze_params(self.params))
        if self.trials < 1:
            raise ValueError("a campaign needs at least one trial per cell")
        for axis in ("algorithms", "topologies", "sizes", "scenarios", "daemons"):
            if not getattr(self, axis):
                raise ValueError(f"campaign axis {axis!r} is empty")
        # Names and scenarios come from the trial pipeline's algorithm
        # registry; imported lazily, since the harness imports the engine.
        from ..harness.runner import ALGORITHMS, check_params, scenario_start

        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(
                f"unknown algorithm(s) {unknown}; choose from {list(ALGORITHMS)}"
            )
        for algorithm in self.algorithms:
            check_params(algorithm, self.params)
            for scenario in self.scenarios:
                scenario_start(algorithm, scenario)  # rejects undeclared ones

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of trials in the grid."""
        return (
            len(self.algorithms) * len(self.topologies) * len(self.sizes)
            * len(self.scenarios) * len(self.daemons) * self.trials
        )

    def specs(self) -> list[TrialSpec]:
        """Expand the grid into trial descriptors (deterministic order)."""
        return list(self.iter_specs())

    def iter_specs(self) -> Iterator[TrialSpec]:
        for algorithm, topology, n, scenario, daemon, trial in product(
            self.algorithms, self.topologies, self.sizes,
            self.scenarios, self.daemons, range(self.trials),
        ):
            yield TrialSpec(
                algorithm=algorithm,
                topology=topology,
                n=n,
                scenario=scenario,
                daemon=daemon,
                trial=trial,
                topology_seed=self.topology_seed,
                params=self.params,
            )

    def seed_for(self, spec: TrialSpec) -> int:
        """The derived PRNG seed one trial runs with."""
        return derive_seed(self.seed, spec.key())

    def keys(self) -> set[str]:
        return {spec.key() for spec in self.iter_specs()}
