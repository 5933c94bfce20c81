"""The package's one concurrency rule, for embed's blocks, verify's checks and
the CSV writer's formatting: WORKERS threads whatever the CPU count, so memory
does not grow with the machine; and one_blas_thread, which runs embed's
projection matmuls, and kpca's column blocks of the embedded Gram, on one
OpenBLAS thread, so their bytes do not depend on the thread count and the
pool's threads do not contend with BLAS's own.

Each in_order call builds its own pool, so a CSV embed that pools its blocks
runs two pools at once.  That is by design: one process-wide pool of WORKERS
threads would deadlock as soon as WORKERS pooled jobs each waited on an
in_order of their own (verify's checks calling a pooled embed, say), since
the outer jobs would hold every worker their inner jobs wait for.
"""

import threading
from contextlib import contextmanager
from functools import cache
from itertools import islice

WORKERS = 2


def in_order(jobs, ahead: int):
    """fn(*args) for each (fn, *args) of jobs, in order, as run one by one.

    At most ahead jobs are submitted and not yet yielded, and a job is drawn
    only when it can be submitted, so the caller's work between results and
    whatever drawing a job computes overlap the pool's work on earlier jobs.
    With ahead = 0 every job runs on the calling thread and no pool is built.
    """
    if not ahead:
        for fn, *args in jobs:
            yield fn(*args)
        return
    from concurrent.futures import ThreadPoolExecutor

    jobs = iter(jobs)
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        pending = [pool.submit(*job) for job in islice(jobs, ahead)]
        while pending:
            yield pending.pop(0).result()
            pending += [pool.submit(*job) for job in islice(jobs, 1)]


# The thread-count getter and setter that numpy's bundled OpenBLAS (the
# scipy-openblas wheels) exports under its own prefix.
_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
# Module state, as the thread count it guards is process-wide.
_pin_lock = threading.Lock()
_pin_users = 0
_pin_saved = 0


@cache
def _find_blas_threads():
    """(get, set) from numpy's bundled OpenBLAS, or None when it has none:
    numpy built against a system OpenBLAS, MKL or Accelerate."""
    import ctypes
    from pathlib import Path

    import numpy as np

    home = Path(np.__file__).parent
    # where the wheels keep it: numpy.libs on Linux and Windows, .dylibs on macOS
    for lib in [*home.parent.glob("numpy.libs/*scipy_openblas*"),
                *home.glob(".dylibs/*scipy_openblas*")]:
        try:
            handle = ctypes.CDLL(str(lib))
            get, set_ = (getattr(handle, name) for name in _OPENBLAS_THREADS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread.

    The setting is process-wide, so it is counted: the first of any
    overlapping users saves the thread count and sets one, the last restores
    the saved count.  Where numpy's BLAS is not its bundled OpenBLAS this does
    nothing, and BLAS keeps its own thread count.  The library is looked up on
    first use, not at import.
    """
    global _pin_users, _pin_saved
    with _pin_lock:
        threads = _find_blas_threads()
        if threads is not None:
            if not _pin_users:
                _pin_saved = threads[0]()
                threads[1](1)
            _pin_users += 1
    try:
        yield
    finally:
        if threads is not None:
            with _pin_lock:
                _pin_users -= 1
                if not _pin_users:
                    threads[1](_pin_saved)
