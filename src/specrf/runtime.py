"""The process the experiments run in: one BLAS thread, a raised heap mmap
threshold, the byte budget of every streamed buffer, the symmetric BLAS
kernels, the CPUs a process may use, and a record of the environment that
produced an output.

numpy's bundled OpenBLAS is found once with ctypes among the libraries mapped
into this process (/proc/self/maps).  The symbols used:

- `*_set_num_threads` pins it to one thread.  Where no such symbol exists
  (another BLAS, or no /proc/self/maps) pinning does nothing and the thread
  count is reported as null.
- `scipy_cblas_dsymv64_` (ILP64 CBLAS) computes a symmetric matrix-vector
  product from one triangle, half the bytes of a general product.
  `symmetric_step` uses it for every gradient-descent step; where the symbol
  is missing the step is `np.matmul`.  The two sum in different orders, so
  the environment block records which kernel ran (`gd_kernel`).
- `scipy_cblas_dsyrk64_` adds a block's A A^T or A^T A into one triangle of
  an operator in place (`symmetric_update`), so a covariance or Gram matrix
  summed over blocks of rows or columns needs no operator-sized temporary
  and is mirrored once (`mirror_upper`).  Where the symbol is missing the
  update is `np.matmul` plus an addition; the environment block records which
  (`operator_kernel`).
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import platform
from typing import Callable

import numpy as np

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")
# CBLAS_ORDER, CBLAS_UPLO and CBLAS_TRANSPOSE (C int enums)
_ROW_MAJOR, _UPPER, _NO_TRANS, _TRANS = 101, 121, 111, 112
_ENUM, _I64, _DBL, _PTR = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


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


def _cblas(name: str, argtypes: list):
    """The ILP64 CBLAS routine `name` of the loaded OpenBLAS, or None."""
    for lib in _openblas_libs():
        fn = getattr(lib, f"scipy_cblas_{name}64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, None
            return fn
    return None


@functools.cache
def _dsymv():
    """cblas_dsymv(Order, Uplo, N, alpha, A, lda, X, incX, beta, Y, incY), or None."""
    return _cblas("dsymv", [_ENUM, _ENUM, _I64, _DBL, _PTR, _I64, _PTR, _I64, _DBL, _PTR, _I64])


@functools.cache
def _dsyrk():
    """cblas_dsyrk(Order, Uplo, Trans, N, K, alpha, A, lda, beta, C, ldc), or None."""
    return _cblas("dsyrk", [_ENUM, _ENUM, _ENUM, _I64, _I64, _DBL, _PTR, _I64, _DBL, _PTR, _I64])


#: the block `init_process` allocates and frees to raise glibc's mmap threshold
HEAP_PRIME_BYTES = 1 << 20

#: bytes of every streamed buffer: a design's row chunks and column blocks,
#: prediction rows, cosine tables with their scratch rows, the neural
#: operator's row blocks and the tiles of `mirror_upper`.  Half the 2 MiB L2
#: cache of the cores it was measured on, so a block and what it is
#: multiplied with stay in that cache while two workers share the memory bus.
#: No buffer exceeds it (unless one input's rows or one draw's columns do), so
#: none reaches the mmap threshold `init_process` sets.
BLOCK_BYTES = 1 << 20


def per_block(item_bytes: int) -> int:
    """How many items of `item_bytes` each fit in BLOCK_BYTES, and at least one."""
    return max(1, BLOCK_BYTES // item_bytes)


@functools.cache
def _malloc_free():
    """The C library's (malloc, free), or None where they cannot be found."""
    try:
        libc = ctypes.CDLL(None)
        malloc, free = libc.malloc, libc.free
    except (OSError, AttributeError):
        return None
    malloc.argtypes, malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    free.argtypes, free.restype = [ctypes.c_void_p], None
    return malloc, free


def init_process() -> None:
    """Set up this process, a worker of a process pool or the serial path.

    - One BLAS thread, so the bytes of an output do not depend on the core
      count.
    - glibc's mmap threshold raised to HEAP_PRIME_BYTES, by allocating and
      freeing one block of that size.  glibc maps blocks above the threshold
      (128 KiB at start) and returns the free memory at the top of its heap
      to the system once it exceeds twice the threshold; freeing a mapped
      block raises the threshold to that block's size.  Whether and when an
      experiment frees such a block depends on the order of its
      allocations, and until one does, a loop that allocates and frees a few
      hundred KiB per pass at the top of the heap faults the same pages in on
      every pass: a `verify` run took 55 683 minor faults instead of 506.
      Raising the threshold at start makes that state independent of the
      allocation order; the threshold still rises as large arrays are freed.
    """
    set_fn, _ = _openblas_threads()
    if set_fn is not None:
        set_fn(1)
    heap = _malloc_free()
    if heap is not None:
        malloc, free = heap
        free(malloc(HEAP_PRIME_BYTES))


def blas_threads() -> int | None:
    """The BLAS thread count the library reports, or None if it cannot say."""
    _, get_fn = _openblas_threads()
    return None if get_fn is None else int(get_fn())


def gd_kernel() -> str:
    """The kernel `symmetric_step` runs: 'dsymv' or 'matmul'."""
    return "matmul" if _dsymv() is None else "dsymv"


def operator_kernel() -> str:
    """The kernel `symmetric_update` runs: 'dsyrk' or 'matmul'."""
    return "matmul" if _dsyrk() is None else "dsyrk"


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


def symmetric_update(c: np.ndarray, a: np.ndarray, transpose: bool = False) -> None:
    """c += a @ a.T, or a.T @ a with `transpose`, on the upper triangle of c.

    `c` must be a C-contiguous float64 square array and `a` a C-contiguous
    float64 array of matching width.  dsyrk (beta = 1) writes only the upper
    triangle, in place; the np.matmul fallback adds the whole product, through
    a temporary of c's size.  Either way `mirror_upper` makes c symmetric once
    every block is in.
    """
    d = a.shape[1] if transpose else a.shape[0]
    if c.dtype != np.float64 or c.shape != (d, d) or not c.flags.c_contiguous:
        raise ValueError(f"symmetric_update needs a C-contiguous float64 ({d}, {d}) array")
    if a.dtype != np.float64 or a.ndim != 2 or not a.flags.c_contiguous:
        raise ValueError("symmetric_update needs a C-contiguous float64 matrix")
    dsyrk = _dsyrk()
    if dsyrk is None:
        c += a.T @ a if transpose else a @ a.T
        return
    k = a.shape[0] if transpose else a.shape[1]
    dsyrk(_ROW_MAJOR, _UPPER, _TRANS if transpose else _NO_TRANS, d, k, 1.0,
          a.ctypes.data, max(1, a.shape[1]), 1.0, c.ctypes.data, d)


def mirror_upper(c: np.ndarray) -> None:
    """Copy the upper triangle of the square array c onto its lower one.

    Square tiles, a source and its transposed destination together about
    BLOCK_BYTES, are copied whole; only the tiles on the diagonal go row by
    row.  One strided row copy per row of c reads a column of c each time,
    which at d = 4554 took twice as long."""
    d = c.shape[0]
    t = math.isqrt(per_block(16))
    for lo in range(0, d, t):
        hi = min(lo + t, d)
        for j in range(0, lo, t):
            c[lo:hi, j:j + t] = c[j:j + t, lo:hi].T
        tile = c[lo:hi, lo:hi]
        for i in range(1, hi - lo):
            tile[i, :i] = tile[:i, i]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (os.cpu_count() also counts CPUs outside it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment(jobs: int) -> dict:
    """What produced a run's bytes: versions, BLAS threads, the kernel that
    formed the operators, the GD step kernel, --jobs and usable cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "operator_kernel": operator_kernel(),
            "gd_kernel": gd_kernel(), "jobs": jobs, "nproc": usable_cpus()}
