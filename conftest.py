"""Test-session setup: pin BLAS to one thread before anything imports numpy.

The suite's GP fits are many small factorizations that gain nothing from
BLAS threads and pay for their handoff. ``setdefault`` keeps a value set in
the environment, so ``OPENBLAS_NUM_THREADS=2 pytest`` still runs threaded.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
