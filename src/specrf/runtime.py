"""The process the experiments run in: one BLAS thread, the gradient-descent
step kernel, and a record of the environment that produced an output.

numpy's bundled OpenBLAS is found once with ctypes among the libraries mapped
into this process (/proc/self/maps).  Two of its symbols are used:

- `*_set_num_threads` pins it to one thread.  Where no such symbol exists
  (another BLAS, or no /proc/self/maps) pinning does nothing and the thread
  count is reported as null.
- `scipy_cblas_dsymv64_` (ILP64 CBLAS) computes a symmetric matrix-vector
  product from one triangle, half the bytes of a general product.
  `symmetric_step` uses it for every gradient-descent step; where the symbol
  is missing the step is `np.matmul`.  The two sum in different orders, so
  the environment block records which kernel ran.
"""
from __future__ import annotations

import ctypes
import functools
import os
import platform
from typing import Callable

import numpy as np

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")
_ROW_MAJOR, _UPPER = 101, 121   # CBLAS_ORDER, CBLAS_UPLO (C int enums)


@functools.cache
def _openblas_libs() -> tuple:
    """The OpenBLAS libraries mapped into this process, opened with ctypes."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def _openblas_threads() -> tuple:
    """(set_num_threads, get_num_threads) of the loaded OpenBLAS, or (None, None)."""
    for lib in _openblas_libs():
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                set_fn = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                get_fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if set_fn is not None and get_fn is not None:
                    set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                    get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                    return set_fn, get_fn
    return None, None


@functools.cache
def _dsymv():
    """cblas_dsymv of the loaded ILP64 OpenBLAS, or None."""
    for lib in _openblas_libs():
        fn = getattr(lib, "scipy_cblas_dsymv64_", None)
        if fn is not None:
            i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
            fn.argtypes = [ctypes.c_int, ctypes.c_int, i64, dbl, ptr, i64,
                           ptr, i64, dbl, ptr, i64]
            fn.restype = None
            return fn
    return None


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


def gd_kernel() -> str:
    """The kernel `symmetric_step` runs: 'dsymv' or 'matmul'."""
    return "matmul" if _dsymv() is None else "dsymv"


def symmetric_step(a: np.ndarray, x: np.ndarray, target: np.ndarray,
                   out: np.ndarray) -> Callable[[], None]:
    """A callable writing out = a @ x - target for a symmetric a.

    `a` must be a C-contiguous float64 (d, d) array, exactly symmetric: only
    its upper triangle is read.  `x`, `target` and `out` are contiguous
    float64 vectors of length d, fixed for the life of the callable, which
    reads x as it is at each call.  No array is copied or allocated per call.
    """
    d = a.shape[0]
    if a.dtype != np.float64 or a.shape != (d, d) or not a.flags.c_contiguous:
        raise ValueError("symmetric_step needs a C-contiguous float64 square matrix")
    for vec in (x, target, out):
        if vec.dtype != np.float64 or vec.shape != (d,) or not vec.flags.c_contiguous:
            raise ValueError(f"symmetric_step needs contiguous float64 vectors of length {d}")
    dsymv = _dsymv()
    if dsymv is None:
        def step() -> None:
            np.matmul(a, x, out=out)
            np.subtract(out, target, out=out)
        return step

    # out = 1.0 * a @ x + (-1.0) * out, with out holding the target first;
    # each data_as pointer keeps its array alive
    ptr = ctypes.c_void_p
    call = functools.partial(dsymv, _ROW_MAJOR, _UPPER, d, 1.0, a.ctypes.data_as(ptr), d,
                             x.ctypes.data_as(ptr), 1, -1.0, out.ctypes.data_as(ptr), 1)

    def step() -> None:
        np.copyto(out, target)
        call()
    return step


def environment(jobs: int) -> dict:
    """What produced a run's bytes: versions, BLAS threads, the GD step
    kernel, --jobs and cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "gd_kernel": gd_kernel(),
            "jobs": jobs, "nproc": os.cpu_count()}
