"""Run numpy's BLAS on one thread for the length of a command.

OpenBLAS splits a matrix product over its threads, and the split changes
how the sums round, so with another thread count (another machine, or
``OPENBLAS_NUM_THREADS``) an LR fit can end on other weights and
``report.csv`` on other bytes. At the sizes ``run`` multiplies, the
second thread also buys little and, on some virtual machines, costs
tens of milliseconds per product. ``one_thread`` sets the thread count
of the OpenBLAS that numpy loaded to 1 and restores it on exit.

Importing ``facetrec`` also sets ``OPENBLAS_NUM_THREADS`` to 1 when it is
unset, so that an OpenBLAS that numpy loads afterwards starts no worker
threads. That default does not reach a numpy imported before ``facetrec``,
and a user's value is kept; the pin in ``one_thread`` covers both.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os

import numpy as np

log = logging.getLogger(__name__)

# Getter/setter pairs, first match wins: numpy's bundled scipy-openblas,
# then OpenBLAS built with 64-bit integer suffixes, then plain OpenBLAS.
_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def thread_control():
    """(get, set) for the thread count of numpy's OpenBLAS, or None.

    The library is found among the files mapped into this process
    (``/proc/self/maps``, so Linux only); None when no mapped OpenBLAS
    exports one of the known pairs.
    """
    paths = set()
    try:
        with open("/proc/self/maps", "rb") as fh:
            for line in fh:
                # address perms offset device inode path; the path may hold spaces.
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and b"openblas" in fields[5].lower():
                    paths.add(os.fsdecode(fields[5].strip()))
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count.

    Without a thread setter (another BLAS, or not Linux) the body runs
    unpinned.
    """
    control = thread_control()
    if control is None:
        log.info("BLAS threads unpinned: no OpenBLAS thread setter found")
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    log.info("BLAS pinned to 1 thread (was %d)", before)
    try:
        yield
    finally:
        set_(before)


def environment() -> dict:
    """The BLAS numpy was built with and the thread count it runs on now."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        build = {}
    control = thread_control()
    return {
        "blas": {"name": str(build.get("name", "unknown")), "version": str(build.get("version", "unknown"))},
        "blas_threads": control[0]() if control else "unpinned",
    }
