"""Settings for every pytest run over ``tests/`` and ``perfbench/``.

BLAS runs on one thread unless the environment already says otherwise,
as in the benchmark's own processes: on a small host a threaded BLAS
makes the many small matrix products of the tests slower, not faster.
This must run before numpy is imported, so it lives here at the root.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
