"""Deterministic random streams.

All sampling in this package runs through counter-based Philox streams so
that results are bit-reproducible from a 64-bit seed and independent of
evaluation order.  Feature-map rows get their own streams keyed by
(seed, row): row r of a map is the same whether the map has r+1 rows or a
million, and rows can be generated in parallel.  Experiment code derives
fresh 64-bit seeds for sub-tasks from (seed, labels...) via derive_seed.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ._checks import integer

__all__ = ["check_seed", "row_generator", "row_generators", "generator", "derive_seed"]

_SEED_BOUND = 1 << 64


def check_seed(seed: int) -> int:
    """Validate and return a seed in [0, 2^64)."""
    value = integer("seed", seed, minimum=0)
    if value >= _SEED_BOUND:
        raise ValueError(f"seed must lie in [0, 2^64), got {value}")
    return value


def row_generator(seed: int, row: int) -> np.random.Generator:
    """Generator for one feature-map row, keyed by (seed, row).

    The 128-bit Philox key is seed * 2^64 + row, so distinct (seed, row)
    pairs give independent streams and a row's draws never depend on how
    many other rows exist.
    """
    seed = check_seed(seed)
    row = integer("row", row, minimum=0)
    if row >= _SEED_BOUND:
        raise ValueError(f"row must lie in [0, 2^64), got {row}")
    return np.random.Generator(np.random.Philox(key=(seed << 64) | row))


def row_generators(seed: int, rows: int) -> Iterator[np.random.Generator]:
    """Generators for rows 0 .. rows-1 of a map, in order.

    Each yielded generator draws exactly what row_generator(seed, row) draws,
    but one Philox bit generator serves every row, which skips building a
    Generator per row.  Before each row the bit generator is reset to the
    state a freshly keyed Philox starts in (zero counter, empty output
    buffer, no cached 32-bit half), with the key set to (seed << 64) | row.
    A yielded generator is valid only until the next one is requested,
    because all of them are the same object.
    """
    bitgen = np.random.Philox(key=check_seed(seed) << 64)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # a snapshot, never updated by later draws
    # The key's 64-bit words are stored least significant first: [row, seed].
    key = fresh["state"]["key"]
    for row in range(rows):
        key[0] = row
        bitgen.state = fresh
        yield gen


def generator(seed: int) -> np.random.Generator:
    """General-purpose Philox generator for a seed.

    Keys are passed through SeedSequence mixing, so these streams never
    collide with the raw-keyed per-row streams of row_generator.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(check_seed(seed))))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a fresh 64-bit seed from a base seed and an integer path.

    Used to give each (t, trial, ...) work item its own independent stream
    while keeping the whole experiment reproducible from one seed.
    """
    seed = check_seed(seed)
    ss = np.random.SeedSequence((seed, *[integer("path entry", p, minimum=0) for p in path]))
    return int(ss.generate_state(1, np.uint64)[0])
