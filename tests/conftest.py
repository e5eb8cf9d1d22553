"""Run the test suite's BLAS on one thread.

OpenBLAS starts a worker thread per core for each level-3 product, and a
worker that waits for a busy core makes the suite several times slower
beside another process.  The thread count is read when numpy loads the
BLAS, so it is set here, before any test module imports numpy; a value
already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
