"""No sweep, trial or CLI start loads networkx.

networkx is an interop and test dependency only: the topology families
list their own links.  A fresh interpreter imports the package and the
CLI, builds every family, sweeps ring and random cells of every
algorithm batched and serial, and must end with networkx never loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent("""
    import sys

    import repro
    import repro.harness.__main__ as cli
    from repro.engine import Campaign, run_campaign
    from repro.harness.runner import ALGORITHMS
    from repro.topology import TOPOLOGIES

    for name, build in TOPOLOGIES.items():
        assert build(16, seed=0).n >= 16, name
    campaign = Campaign("no-nx", seed=0, algorithms=tuple(ALGORITHMS),
                        topologies=("ring", "random"), sizes=(16,), trials=2)
    for batch in (True, False):
        outcome = run_campaign(campaign, batch=batch)
        assert len(outcome.records) == 4 * len(ALGORITHMS), batch
    for flags in ([], ["--no-batch"]):
        assert cli.main(["sweep", "--grid", "topology=ring,random",
                         "--grid", "n=16", "--trials", "2", "--quiet",
                         "--out", f"sweep{len(flags)}.jsonl", *flags]) == 0
    assert "networkx" not in sys.modules, "networkx was imported"
""")


def test_no_sweep_trial_or_cli_start_imports_networkx(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
