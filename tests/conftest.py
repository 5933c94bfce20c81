"""Fixtures shared by the test modules."""

import concurrent.futures
import os
import sys

import numpy as np
import pytest

import rffkd._pool
import rffkd.features


@pytest.fixture
def bundled_openblas():
    """Skips the test unless numpy's build names its BLAS scipy-openblas, the
    OpenBLAS bundled in its wheels."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy that does not say
        name = None
    if name != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {name!r}, not its bundled scipy-openblas")


@pytest.fixture
def blas_threads(bundled_openblas):
    """The getter of numpy's OpenBLAS thread count, with the count set to 2
    until the test ends; no one may hold the pin before or after."""
    threads = rffkd._pool._find_blas_threads()
    assert threads is not None, "no thread-count symbols found in numpy's scipy-openblas"
    get, set_ = threads
    saved = get()
    set_(2)
    assert rffkd._pool._pin_users == 0
    yield get
    set_(saved)
    assert rffkd._pool._pin_users == 0, "a pipeline did not leave the pin"


@pytest.fixture
def report_cpus(monkeypatch):
    """A function that makes this process report cpus usable CPUs, through
    both os.sched_getaffinity and os.cpu_count, until the test ends."""

    def report(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    return report


@pytest.fixture
def take_pool(monkeypatch):
    """A function that sets the embed pipeline's path: "pooled" pools any
    input of two blocks or more, so that small inputs reach the pool, and
    "serial" never pools."""

    def take(path="pooled"):
        monkeypatch.setattr(rffkd.features, "_POOL_MIN_BLOCKS", 2 if path == "pooled" else sys.maxsize)

    return take


@pytest.fixture
def pools(monkeypatch):
    """Every thread pool that in_order builds, each counting its submissions."""
    made = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.submitted = 0
            made.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return made
