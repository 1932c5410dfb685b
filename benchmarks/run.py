"""Benchmark entry point; run from the repository root:

    python3 benchmarks/run.py --workload auto-bluestein --seed 1 --seconds 50 --trace 0

Before numpy loads, BLAS threads are pinned to 1 and numpy's huge-page advice
is turned off (both made timings spread from run to run), and
SPECQUANT_THREADS is cleared so the program runs at its default. The program
is imported from src/ next to this directory; without it the run exits 2.
"""

import os
import sys
from pathlib import Path


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ.pop("SPECQUANT_THREADS", None)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "specquant" / "__init__.py").is_file():
        print(f"benchmark: the program is missing: no package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import bench
    except ImportError as exc:
        print(f"benchmark: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
