"""The package's thread-pool rule: nested pooled calls finish."""

import threading

from rffkd._pool import WORKERS, in_order


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
