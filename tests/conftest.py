"""Fixtures shared by the test modules."""

import concurrent.futures
import os
import sys

import pytest

import rffkd.features


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
