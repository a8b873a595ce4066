"""Bit-string conventions used throughout the package.

Strings x of n bits are stored as integer indices in 0..2^n-1 with x_1,
the first bit, in the most significant position.  Bit positions i are
1-based.  All modules share these helpers so the convention lives in
exactly one place.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRangeError


def bit_at(x: int, i: int, n: int) -> int:
    """Value of bit i (1-based, x_1 most significant) of the n-bit string x."""
    if not 1 <= i <= n:
        raise IndexOutOfRangeError(f"bit index {i} outside 1..{n}")
    return (x >> (n - i)) & 1


def bit_column(i: int, n: int) -> np.ndarray:
    """Array of bit i over all x in 0..2^n-1, in index order."""
    if not 1 <= i <= n:
        raise IndexOutOfRangeError(f"bit index {i} outside 1..{n}")
    return (np.arange(2**n) >> (n - i)) & 1


@lru_cache(maxsize=None)
def bit_columns(n: int) -> np.ndarray:
    """(n, 2^n) table whose row i-1 is :func:`bit_column` (i, n), built once
    per n and shared read-only."""
    table = (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    table.flags.writeable = False
    return table


def hamming_table(n: int) -> np.ndarray:
    """2^n x 2^n table of pairwise Hamming distances between indices."""
    xs = np.arange(2**n)
    xor = xs[:, None] ^ xs[None, :]
    out = np.zeros_like(xor)
    for i in range(n):
        out += (xor >> i) & 1
    return out
