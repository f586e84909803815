"""Where a measurement was taken: library versions, BLAS and its threads, the
machine, the commit and the seed.  Recorded in the benchmark's output only."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with the thread count in effect."""
    found = []
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return found
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            found.append(entry)
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is None or threads is None:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry["config"] = config().decode(errors="replace").strip()
                entry["threads"] = threads()
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def collect(root: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
