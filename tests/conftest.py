"""Test-session setup: one BLAS thread per process.

OpenBLAS reads its thread count once, when numpy is first imported, which
happens after this file runs.  Small matrix products, which most of the
suite makes, run several times slower on two threads than on one.  A value
already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
