"""The process the experiments run in: one BLAS thread, and a record of the
environment that produced an output.

numpy's bundled OpenBLAS is pinned in-process through its own
`*_set_num_threads` symbol, found with ctypes among the libraries mapped into
this process.  Where no such symbol exists (another BLAS, or no
/proc/self/maps) pinning does nothing and the thread count is reported as
null.
"""
from __future__ import annotations

import ctypes
import functools
import os
import platform

import numpy as np

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


@functools.cache
def _openblas_threads() -> tuple:
    """(set_num_threads, get_num_threads) of the loaded OpenBLAS, or (None, None)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                set_fn = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                get_fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if set_fn is not None and get_fn is not None:
                    set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                    get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                    return set_fn, get_fn
    return None, None


def pin_blas_threads() -> None:
    """One BLAS thread in this process: a worker of a process pool, or the
    serial path, so the bytes of an output do not depend on the core count."""
    set_fn, _ = _openblas_threads()
    if set_fn is not None:
        set_fn(1)


def blas_threads() -> int | None:
    """The BLAS thread count the library reports, or None if it cannot say."""
    _, get_fn = _openblas_threads()
    return None if get_fn is None else int(get_fn())


def environment(jobs: int) -> dict:
    """What produced a run's bytes: versions, BLAS threads, --jobs and cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "jobs": jobs, "nproc": os.cpu_count()}
