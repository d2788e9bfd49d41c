"""Process settings for dense work, entered by every command and the
continuity scan: one OpenBLAS thread, and a heap that keeps freed memory.

numpy's OpenBLAS splits each LAPACK call over its thread pool.  For the
matrix orders of this toolkit the split does not pay: on a 2-core host
(numpy 2.4.6, OpenBLAS 0.3.31) a complex SVD of order up to 200 runs
slower on two threads than on one, and at orders 300 and 400 a command
takes about the same wall time on one thread as on two, for 1.2-2 times
less CPU.  :func:`serial_blas` sets OpenBLAS to one thread for a block
of calls and restores the count on exit.

A one-thread OpenBLAS call takes the same code path whatever the count
outside the region, so results computed inside a region equal, bit for
bit, those of a process started with ``OPENBLAS_NUM_THREADS=1``, and do
not depend on the host's core count.

The thread count is a process-wide setting: while a region is open,
dense calls made by other threads run serially too.

The first region of a process also fixes glibc's heap thresholds
(:func:`_steady_heap`).  glibc serves blocks above its mmap threshold
with mmap and returns the heap top to the kernel once more than its trim
threshold is free there; both thresholds follow the largest freed
mmapped block, about 2.5 MB for an N = 400 N-sweep, while that sweep
allocates and frees about 12 MB of arrays.  So each job's freed heap was
trimmed and faulted in again by the next one: about 2320 minor faults
per in-process lattice N = 400 N-sweep (``getrusage``; 2-core host,
glibc 2.36), with 4-12 ms of kernel time out of 30-55 ms of CPU.  With
the mmap threshold at 32 MiB (glibc's ceiling for its own dynamic
threshold) and the trim threshold at 64 MiB (twice that, glibc's own
rule), a repeated N-sweep takes no new pages.  The trade is memory: up
to 64 MiB of freed heap stays in the process.  glibc has no getter for
these values, so they cannot be restored: the setting is process-wide
and permanent, and a no-op without glibc.  It pays in processes that run
many jobs; a one-shot command still faults in each page once.
"""

import contextlib
import ctypes
import functools
import glob
import os
import threading
from pathlib import Path

import numpy as np

# (getter, setter) symbol pairs, as the scipy-openblas wheel and plain
# OpenBLAS builds export them
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _controls():
    """``(get, set)`` of numpy's OpenBLAS thread count, or None when numpy
    is not built on OpenBLAS or its library is not found next to numpy."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in str(blas.get("name", "")).lower():
        return None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# glibc mallopt parameters and the values _steady_heap gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _mallopt():
    """glibc's ``mallopt``, or None when the C library is not glibc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError):
        return None
    if not libc or not libc.startswith("glibc"):
        return None
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def _steady_heap():
    """Fix glibc's mmap and trim thresholds for the rest of the process, so
    the memory one job frees is reused by the next instead of being
    returned to the kernel and faulted in again; see the module
    docstring.  Runs once per process; a no-op without glibc."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_lock = threading.Lock()
_depth = 0  # regions open, across threads
_saved = None  # count to restore when the last region closes; None: leave it


@contextlib.contextmanager
def serial_blas():
    """Run the block on one OpenBLAS thread, in a process whose heap keeps
    freed memory (:func:`_steady_heap`, set on the first entry and never
    undone).

    Regions nest and may overlap across threads: the first to open saves
    the count in effect and the last to close restores it, on every exit
    path.  The thread count is left alone for a single-threaded OpenBLAS
    or a BLAS other than OpenBLAS (MKL, Accelerate, or a library not
    found).
    """
    global _depth, _saved
    _steady_heap()
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if _depth == 0:
            count = get()
            if count > 1:
                set_(1)
                _saved = count
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved is not None:
                set_(_saved)
                _saved = None
