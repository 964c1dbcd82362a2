"""Where the benchmark finds the library, and the environment it records.

Nothing here imports NumPy: ``limit_blas_threads`` must run before the
first NumPy import for the BLAS thread setting to take effect.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Cap every BLAS thread-count variable at ``nproc``."""
    cap = nproc()
    for var in _BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cap:
            os.environ[var] = str(cap)


def import_cutrec() -> None:
    """Import ``cutrec`` from this checkout's ``src``, never an installed
    copy; exit with status 1 when the checkout has none."""
    sys.path.insert(0, str(SRC))
    try:
        import cutrec
    except ImportError as err:
        sys.exit(f"perfbench: cannot import cutrec from {SRC}: {err}")
    if not Path(cutrec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: cutrec resolved to {cutrec.__file__}, "
                 f"not to {SRC}")


def _git(*args: str) -> str | None:
    # Git reads nothing outside the checkout: no parent repository, no
    # system or user configuration.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """Software and machine facts to store with every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }
