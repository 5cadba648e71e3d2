"""Test-session setup: pin the BLAS thread count before numpy loads, and
fail the session if a test leaves a thread running.

Report bytes depend on the BLAS thread count, and an unpinned OpenBLAS
oversubscribes a busy machine.  A count the caller already set is kept.
"""

import os
import threading

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture(scope="session", autouse=True)
def no_leaked_threads():
    """A non-daemon thread started during the session must end with it."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before and not t.daemon]
    if leaked:
        pytest.fail(f"threads still running after the session: {leaked}")
