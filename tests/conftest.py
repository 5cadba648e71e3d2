"""Test-session setup: pin the BLAS thread count before numpy loads.

Report bytes depend on the BLAS thread count, and an unpinned OpenBLAS
oversubscribes a busy machine.  A count the caller already set is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
