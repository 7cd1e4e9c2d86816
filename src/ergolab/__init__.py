"""Numerical laboratory for equilibration and entanglement structure in
finite spin chains.

Submodules are imported explicitly (``from ergolab import states``) so that
the command-line entry point can configure thread limits before any heavy
numerical import happens.
"""

import os

__version__ = "0.1.0"

CATALOG_VERSION = "1"


def worker_count() -> int:
    """Worker threads for BLAS and the entanglement scan: ERGOLAB_THREADS
    when set and non-empty, else the CPUs this process may run on.

    Raises ValueError unless the variable holds a positive integer.
    """
    value = os.environ.get("ERGOLAB_THREADS", "")
    if not value:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not (value.isascii() and value.isdigit()) or int(value) < 1:
        raise ValueError(f"ERGOLAB_THREADS must be a positive integer, got {value!r}")
    return int(value)
