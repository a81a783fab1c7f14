"""Test-suite setup shared by every test module."""

import os

# One thread per BLAS pool, as in planbench/run.py: on a shared machine the
# pools spin on busy cores and small dense solves slow down many-fold. The
# variables are read when numpy loads, so they are set before any test
# module imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
