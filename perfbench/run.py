"""Benchmark of the rankevidence study pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  One process runs one workload with a
single BLAS/OpenMP thread, driving the public CLI entry points in-process
(``rankevidence.cli.main``, and ``cli.run_verification`` for ``verify``).
After one untimed warm-up pass it repeats whole passes for T seconds, checks
every output, and prints one JSON object as the last line of stdout:
``correct``, ``attempted`` and ``failed`` operations (an operation is a study
cell or one verify check) and the metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced passes with passes in
which every public module function is wrapped in a span, and reports the
per-layer metrics.  Diagnostics go to stderr.  See README.md beside this file.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in THREAD_VARS:          # before numpy loads its BLAS
        os.environ[var] = "1"
    from bench import main

    sys.exit(main())
