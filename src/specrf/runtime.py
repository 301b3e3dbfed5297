"""The process the experiments run in: one BLAS thread, a raised heap mmap
threshold, the byte budget of every streamed buffer, the symmetric rank-k
update, order statistics that keep numpy.ma out of the process, the CPUs a
process may use, and a record of the environment that produced an output.

numpy's bundled OpenBLAS is found once with ctypes among the libraries mapped
into this process (/proc/self/maps).  The symbols used:

- `*_set_num_threads` pins it to one thread.  Where no such symbol exists
  (another BLAS, or no /proc/self/maps) pinning does nothing and the thread
  count is reported as null.
- `*_get_corename` names the core type whose kernels it runs (`blas_core`,
  null where the symbol is missing).
- `scipy_cblas_dsyrk64_` (ILP64 CBLAS) adds a block's A A^T or A^T A into
  one triangle of an operator in place (`symmetric_update`), so a covariance
  or Gram matrix summed over blocks of rows or columns needs no
  operator-sized temporary and is mirrored once (`mirror_upper`).  Where the
  symbol is missing the update is `np.matmul` on row tiles of the upper
  triangle; the environment block records which (`operator_kernel`).
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import platform

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


def _openblas_fn(stem: str):
    """The loaded OpenBLAS's function `<prefix>_<stem><suffix>`, or None."""
    for lib in _openblas_libs():
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
                if fn is not None:
                    return fn
    return None


@functools.cache
def _openblas_threads() -> tuple:
    """(set_num_threads, get_num_threads) of the loaded OpenBLAS, or (None, None)."""
    set_fn, get_fn = _openblas_fn("set_num_threads"), _openblas_fn("get_num_threads")
    if set_fn is None or get_fn is None:
        return None, None
    set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
    get_fn.argtypes, get_fn.restype = [], ctypes.c_int
    return set_fn, get_fn


@functools.cache
def blas_core() -> str | None:
    """The CPU core the loaded OpenBLAS chose its kernels for (`SkylakeX`),
    or None where it cannot say."""
    fn = _openblas_fn("get_corename")
    if fn is None:
        return None
    fn.argtypes, fn.restype = [], ctypes.c_char_p
    core = fn()
    return core.decode() if core else None


@functools.cache
def _dsyrk():
    """cblas_dsyrk(Order, Uplo, Trans, N, K, alpha, A, lda, beta, C, ldc) of
    the loaded OpenBLAS (ILP64), or None."""
    for lib in _openblas_libs():
        fn = getattr(lib, "scipy_cblas_dsyrk64_", None)
        if fn is not None:
            fn.argtypes = [_ENUM, _ENUM, _ENUM, _I64, _I64, _DBL, _PTR, _I64, _DBL, _PTR, _I64]
            fn.restype = None
            return fn
    return None


#: the block `init_process` allocates and frees to raise glibc's mmap threshold
HEAP_PRIME_BYTES = 1 << 20

#: bytes of every streamed buffer: a design's row chunks and column blocks,
#: prediction rows, cosine tables with their scratch rows, the neural
#: operator's row blocks, the tiles of `mirror_upper` and those of the
#: `symmetric_update` fallback.  Half the 2 MiB L2 cache of the cores it was
#: measured on, so a block and what it is multiplied with stay in that cache
#: while two workers share the memory bus.
#: No buffer exceeds it (unless one input's rows or one draw's columns do), so
#: none reaches the mmap threshold `init_process` sets.
BLOCK_BYTES = 1 << 20


def per_block(item_bytes: int) -> int:
    """How many items of `item_bytes` each fit in BLOCK_BYTES, and at least one."""
    return max(1, BLOCK_BYTES // item_bytes)


def quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) of a 1-D float array, bit for bit (numpy's
    default linear interpolation), from one np.sort.  np.quantile and
    np.median import numpy.ma, which costs a process 9-15 ms and 1.3 MiB."""
    s = np.sort(values)
    n = len(s)
    at = (n - 1) * q
    if math.isnan(s[-1]) or at >= n - 1:
        return float(s[-1])
    lo = math.floor(at)
    a, b, t = float(s[lo]), float(s[lo + 1]), at - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def median(values: np.ndarray) -> float:
    """np.median(values) of a 1-D float array, bit for bit, from one
    np.sort (see `quantile`): the middle value, or the mean of the two."""
    s = np.sort(values)
    mid = len(s) // 2
    if math.isnan(s[-1]):
        return float(s[-1])
    if len(s) % 2:
        return float(s[mid])
    return float((s[mid - 1] + s[mid]) / 2)


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


def operator_kernel() -> str:
    """The kernel `symmetric_update` runs: 'dsyrk' or 'matmul'."""
    return "matmul" if _dsyrk() is None else "dsyrk"


def symmetric_update(c: np.ndarray, a: np.ndarray, transpose: bool = False) -> None:
    """c += a @ a.T, or a.T @ a with `transpose`, on the upper triangle of c.

    `c` must be a C-contiguous float64 square array and `a` a C-contiguous
    float64 array of matching width.  dsyrk (beta = 1) writes only the upper
    triangle, in place.  The np.matmul fallback adds the product into row
    tiles c[lo:hi, lo:] that cover the upper triangle, each through a
    temporary of at most BLOCK_BYTES (at least one row).  Either way
    `mirror_upper` makes c symmetric once every block is in.
    """
    d = a.shape[1] if transpose else a.shape[0]
    if c.dtype != np.float64 or c.shape != (d, d) or not c.flags.c_contiguous:
        raise ValueError(f"symmetric_update needs a C-contiguous float64 ({d}, {d}) array")
    if a.dtype != np.float64 or a.ndim != 2 or not a.flags.c_contiguous:
        raise ValueError("symmetric_update needs a C-contiguous float64 matrix")
    dsyrk = _dsyrk()
    if dsyrk is None:
        t = per_block(8 * d)
        for lo in range(0, d, t):
            hi = min(lo + t, d)
            c[lo:hi, lo:] += a[:, lo:hi].T @ a[:, lo:] if transpose else a[lo:hi] @ a[lo:].T
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
    """What produced a run's bytes: versions, BLAS threads and core, the
    kernel that formed the operators, --jobs and usable cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "blas_core": blas_core(),
            "operator_kernel": operator_kernel(),
            "jobs": jobs, "nproc": usable_cpus()}
