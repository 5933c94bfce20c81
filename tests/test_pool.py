"""The package's concurrency rule: nested pooled calls finish, and the BLAS
pin is counted across threads."""

import sys
import threading

import rffkd._pool
from rffkd._pool import WORKERS, in_order, one_blas_thread


def test_nested_calls_finish():
    """WORKERS outer pooled jobs each wait on an inner pooled in_order.  On
    one shared pool of WORKERS threads the outer jobs would hold every worker
    while their inner jobs waited for one; a pool per call cannot deadlock so.
    The calls run on a thread joined with a timeout, so a deadlock fails the
    test instead of hanging it."""

    def inner(k):
        return list(in_order([(pow, k, j) for j in range(4)], ahead=2))

    results = []

    def outer():
        results.extend(in_order([(inner, k) for k in range(WORKERS)], ahead=WORKERS))

    thread = threading.Thread(target=outer, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "nested in_order calls did not finish"
    assert results == [[k**j for j in range(4)] for k in range(WORKERS)]


def test_pin_counts_its_users_across_threads(blas_threads):
    """Eight threads enter and leave the pin at once, switching often: inside
    it the count is always 1, and the last to leave restores the caller's 2.
    A lost update to the user count would leave the count at 1, or restore 2
    while another thread is still inside."""
    counts, start = [], threading.Barrier(8, timeout=30)

    def pinned():
        start.wait()
        for _ in range(3000):
            with one_blas_thread():
                counts.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pinned) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts == [1] * 8 * 3000
    assert blas_threads() == 2
    assert rffkd._pool._pin_users == 0
