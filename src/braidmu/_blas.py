"""Run a block with every OpenBLAS in the process at one thread.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool.  Code that alternates small calls between the two, as L-BFGS-B does,
leaves the workers of one pool spinning on the cores the other needs.  The
builds are found as mapped into this process (``/proc/self/maps``) and set
through their ``openblas_{get,set}_num_threads`` entry points; where none is
found (another BLAS, or no ``/proc``), :func:`one_thread` does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import os


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as handle:
            return sorted({line.split()[-1] for line in handle
                           if "openblas" in os.path.basename(line.rstrip()).lower()})
    except OSError:
        return []


def _control(lib: ctypes.CDLL) -> tuple | None:
    """The (get, set) thread-count functions of one OpenBLAS build, if it has them."""
    for suffix in ("64_", ""):
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _thread_controls() -> list[tuple]:
    """The (get, set) pair of every mapped OpenBLAS build that has one."""
    controls = []
    for path in _mapped_openblas():
        try:
            control = _control(ctypes.CDLL(path))
        except OSError:
            continue
        if control is not None:
            controls.append(control)
    return controls


@contextlib.contextmanager
def one_thread():
    """Every OpenBLAS found at one thread inside the block, its own count restored
    on the way out, whether the block returns or raises.

    The counts are process-wide, so blocks that overlap in several threads
    can restore each other's setting: enter it from one thread at a time.
    """
    controls = _thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
