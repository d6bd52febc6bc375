"""Where a run happened: machine, toolchain, source revision and load."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, None when not found."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in _OPENBLAS_THREADS:
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def collect(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name"),
        "blas_threads": blas_threads(numpy),
        "git_commit": git_commit(root),
        "loadavg_start": os.getloadavg(),
    }
