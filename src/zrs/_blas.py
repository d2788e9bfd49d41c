"""One OpenBLAS thread for every command and the continuity scan.

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
"""

import contextlib
import ctypes
import functools
import glob
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


_lock = threading.Lock()
_depth = 0  # regions open, across threads
_saved = None  # count to restore when the last region closes; None: leave it


@contextlib.contextmanager
def serial_blas():
    """Run the block on one OpenBLAS thread.

    Regions nest and may overlap across threads: the first to open saves
    the count in effect and the last to close restores it, on every exit
    path.  A no-op for a single-threaded OpenBLAS or a BLAS other than
    OpenBLAS (MKL, Accelerate, or a library not found).
    """
    global _depth, _saved
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
