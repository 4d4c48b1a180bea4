"""Tactile thermography of prismatic tissue inclusions.

Simulates steady heat conduction in a compressed tissue block containing a
heat-generating prismatic tumor, reduces the surface temperature trace to a
compact Fourier signature, and learns the inclusion's base-shape order from
those signatures with an RBF interpolation network.
"""

import os

# One BLAS thread per process, unless the caller chose otherwise. The banded
# Cholesky factor gains nothing from BLAS threads at these sizes, slows down
# badly when each pool worker also starts its own threads, and its bits
# depend on the thread count. A BLAS reads these variables when it is
# loaded, so they must be set before any submodule imports numpy or scipy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
