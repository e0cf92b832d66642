"""Small shared helpers."""

from __future__ import annotations

import ctypes
import os

# Thread-count setters exported by OpenBLAS builds: the scipy-openblas wheels
# (64- and 32-bit integer interfaces) and a plain system OpenBLAS.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads", "openblas_set_num_threads")


def resolve_workers(workers: int | None) -> int:
    """`workers` as an int, or one per CPU for None; entry points have
    checked the count against `RunConfig`'s bounds."""
    if workers is None:
        return os.cpu_count() or 1
    return int(workers)


def single_thread_blas() -> None:
    """Limit every OpenBLAS already loaded into this process to one thread.

    Pool workers already run one per core, so a BLAS thread pool in each of
    them only oversubscribes the machine. Linux only (the loaded libraries are
    read from /proc/self/maps); elsewhere, or with no OpenBLAS loaded, nothing
    happens.
    """
    try:
        with open("/proc/self/maps") as fh:     # only the path field can hold "openblas"
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def pmap(fn, items: list, workers: int | None = 1) -> list:
    """Map preserving input order; results are identical for any worker count.

    A pool starts only for two or more items and workers, with one process
    per item up to `workers` (a pool starts all its processes at once, so an
    idle one would only cost its start-up). Otherwise the items run in this
    process, and `concurrent.futures` is never imported.
    """
    workers = min(resolve_workers(workers), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=single_thread_blas) as executor:
        return list(executor.map(fn, items))
