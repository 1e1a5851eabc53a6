"""Benchmark entry point for ridgecover.

Run from the root of a checkout:

    python3 bench/run.py --workload ridge_narrow --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/smoke.py                         # tiny sizes, a few seconds

The program is used straight from ``src/``; nothing is installed.  BLAS
is pinned to one thread before numpy loads.  See ``harness.py`` for the
workloads and end-to-end metrics and ``layers.py`` for the traced run.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS threads and put ``src/`` first on the path.

    Returns False when the checkout holds no ridgecover sources.
    """
    if not (ROOT / "src" / "ridgecover" / "__init__.py").is_file():
        return False
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main() -> int:
    if not prepare():
        print(f"error: no ridgecover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
