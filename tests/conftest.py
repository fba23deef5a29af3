"""Session settings for the test suite: one BLAS and OpenMP thread.

pytest loads this file before any test module imports numpy, so the
thread counts take effect.  Small dense kernels (the ``expm`` of the
sampled-kernel transfers) then do not slow down by contending for cores
with other processes.  Values already set in the environment are kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
