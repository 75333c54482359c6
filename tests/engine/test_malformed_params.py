"""A malformed grid or trial param is refused before the first trial runs.

One list of malformed cases, checked three ways: the sweep CLI exits 2
and writes nothing, :class:`~repro.engine.Campaign` raises
``ValueError``, and a direct :func:`~repro.harness.runner.run_network_trial`
with the same run options raises before anything is built.
"""

import dataclasses

import pytest

from repro.alliance.functions import INSTANCES
from repro.engine import Campaign
from repro.harness import __main__ as cli
from repro.harness import runner
from repro.telemetry.events import events_path_for
from repro.telemetry.provenance import manifest_path_for
from repro.topology import by_name

#: ``(grid axes, params)`` — the axes as Campaign fields.
MALFORMED = {
    "faults-spec": ({}, {"faults": "garbage"}),
    "churn-spec": ({}, {"churn": "garbage"}),
    "unknown-strategy": ({}, {"adversary": "sneaky"}),
    "empty-strategy": ({}, {"adversary": ""}),
    "backend-gpu": ({}, {"backend": "gpu"}),
    "max_steps-abc": ({}, {"max_steps": "abc"}),
    "max_steps-negative": ({}, {"max_steps": -1}),
    "adversary-faults": ({}, {"adversary": "greedy", "faults": "at=5,k=1"}),
    "adversary-churn": ({}, {"adversary": "greedy", "churn": "at=5,crash=1"}),
    "adversary-central": ({"daemons": ("central",)}, {"adversary": "greedy"}),
    "adversary-dict": ({}, {"adversary": "greedy", "backend": "dict"}),
    "period-abc": ({}, {"period": "abc"}),
    "period-float": ({}, {"period": 2.5}),
    "alpha-str": ({"algorithms": ("boulinier",)}, {"alpha": "x"}),
    "unknown-instance": ({"algorithms": ("fga",)}, {"instance": "nope"}),
    "unknown-topology": ({"topologies": ("nope",)}, {}),
    "unknown-daemon": ({"daemons": ("nope",)}, {}),
}

_AXIS = {"algorithms": "algorithm", "topologies": "topology",
         "daemons": "daemon"}


def _argv(axes: dict, params: dict, out) -> list[str]:
    argv = ["sweep", "--grid", "n=5", "--quiet", "--out", str(out)]
    for field, values in axes.items():
        argv += ["--grid", f"{_AXIS[field]}={','.join(values)}"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    return argv


@pytest.mark.parametrize("case", list(MALFORMED))
def test_sweep_exits_2_and_writes_nothing(case, tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    assert cli.main(_argv(*MALFORMED[case], out)) == 2
    assert capsys.readouterr().out.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    assert not events_path_for(out).exists()
    assert not manifest_path_for(out).exists()


@pytest.mark.parametrize("case", list(MALFORMED))
def test_campaign_raises(case):
    axes, params = MALFORMED[case]
    with pytest.raises(ValueError):
        Campaign("bad", seed=0, sizes=(5,), params=tuple(params.items()),
                 **axes)


RUN_CASES = [case for case, (axes, params) in MALFORMED.items()
             if set(axes) <= {"daemons"} and params
             and set(params) <= set(runner.RUN_OPTIONS)]


@pytest.mark.parametrize("case", RUN_CASES)
def test_run_network_trial_raises_before_building(case, monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("built or simulated a malformed trial")

    entry = runner.ALGORITHMS["unison"]
    monkeypatch.setitem(runner.ALGORITHMS, "unison",
                        dataclasses.replace(entry, build=untouched))
    monkeypatch.setattr(runner, "Simulator", untouched)
    axes, params = MALFORMED[case]
    daemon = axes.get("daemons", ("distributed-random",))[0]
    with pytest.raises(ValueError):
        runner.run_network_trial("unison", by_name("ring", 5), daemon=daemon,
                                 **params)


def test_run_cases_cover_every_run_option():
    covered = {key for case in RUN_CASES for key in MALFORMED[case][1]}
    assert covered == set(runner.RUN_OPTIONS)


@pytest.mark.parametrize("flag", ["--faults", "--churn", "--adversary",
                                  "--backend"])
def test_removed_alias_flags_are_unknown_arguments(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", flag, "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["algorithms", "topologies", "size", "sizes",
                                  "scenarios", "daemons"])
def test_grid_axes_have_one_spelling(axis, capsys):
    assert cli.main(["sweep", "--grid", f"{axis}=5"]) == 2
    assert "unknown grid axis" in capsys.readouterr().out


def test_unknown_instance_names_the_declared_ones(tmp_path, capsys):
    argv = _argv(*MALFORMED["unknown-instance"], tmp_path / "r.jsonl")
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    assert all(repr(name) in out for name in INSTANCES)


@pytest.mark.parametrize("case, words", [
    ("unknown-instance", "is not one of 'dominating-set', "),
    ("period-float", "period=2.5 is not int or None"),
])
def test_annotation_refusals_read_as_words(case, words, tmp_path, capsys):
    argv = _argv(*MALFORMED[case], tmp_path / "r.jsonl")
    assert cli.main(argv) == 2
    out = capsys.readouterr().out
    assert words in out
    assert "typing." not in out


def test_well_formed_params_pass():
    Campaign("ok", seed=0, algorithms=("unison", "boulinier"),
             params=(("period", 12), ("max_steps", 0), ("backend", "dict"),
                     ("faults", "at=5,k=1"), ("churn", "at=5,crash=1")))
    Campaign("ok", seed=0, params=(("adversary", "beam-2x2"),))
    Campaign("ok", seed=0, algorithms=("fga",),
             params=(("instance", "2-dominating-set"),))
