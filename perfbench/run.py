"""Entry point of the campaign benchmark; see :mod:`perfbench.bench`.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 28 --trace 0

Run from the repository root.  BLAS and OpenMP thread pools are pinned
to one thread before numpy loads, and the package's own telemetry and
chaos switches are cleared, so untraced runs time the program as a user
runs it.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_TELEMETRY", "REPRO_CHAOS", "REPRO_CHAOS_DIR", "REPRO_CERT_DIR"):
    os.environ.pop(_var, None)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
    sys.exit(f"error: no repro package under {os.path.join(_ROOT, 'src')}; "
             "run from a full checkout")
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
