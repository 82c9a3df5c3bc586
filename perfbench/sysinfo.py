"""The machine and library record stored with every run."""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Keep BLAS threads at or below the CPUs this process may use.  Must
    run before numpy is imported."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, limit))
        except ValueError:
            wanted = limit
        os.environ[var] = str(max(1, min(wanted, limit)))


def _lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    return {k.strip(): v.strip() for k, v in fields.items()}


def _version(dist) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = _lscpu()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "click": _version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "cpu_model": cpu.get("Model name", platform.processor() or "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
    }
