"""Process environment of the benchmark.

Every benchmark process runs single-threaded: the BLAS thread count is
capped at one before NumPy is imported, so a shared machine's cores do not
turn into a second, hidden source of parallelism.  The package is imported
from this checkout's ``src/``, never from an installed copy.
"""

import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CAP = 1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def prepare() -> None:
    """Cap BLAS threads and put ``src/`` first on ``sys.path``.

    Must run before NumPy is imported.  Exits with a non-zero code when the
    checkout holds no package source.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    if not os.path.isfile(os.path.join(SRC, "unispan", "__init__.py")):
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, SRC)


def describe() -> dict:
    """Machine and library versions recorded with every result."""
    import numpy as np
    import unispan

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    backend = getattr(unispan, "backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernel_backend": backend() if callable(backend) else "not exposed",
        "blas_thread_cap": THREAD_CAP,
    }
