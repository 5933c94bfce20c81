"""Fixtures shared by the test modules."""

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
def take_pool(monkeypatch, report_cpus):
    """A function that makes the process report cpus usable CPUs and sets the
    embed pipeline's path: with cpus > 1 it pools any input of two blocks or
    more, so that small inputs reach the pool, and with cpus = 1 it never
    pools.  The pipeline itself reads no CPU count."""

    def take(cpus=64):
        report_cpus(cpus)
        monkeypatch.setattr(rffkd.features, "_POOL_MIN_BLOCKS", 2 if cpus > 1 else sys.maxsize)

    return take
