"""The fixed reference block every timed operation is divided by.

It imports nothing from qraclab.  Its work is a fixed mix of the kinds of
work the program does: small Hermitian eigendecompositions and matrix
products at dimensions 4 to 32, many small numpy calls, and a short loop of
plain interpreter work.  Dividing an operation's wall time by the time of
the block run just before it cancels most of the host's speed swings, so
costs in these "ref" units repeat across runs where raw seconds do not.

The block's inputs come from a fixed generator seed and never from the
workload seed: the unit must be the same in every run.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one block takes on the machine the README describes.  setup_s is
# set-up time in ref units times this constant: seconds at that machine's
# speed, so that it does not swing with the host's speed as raw seconds do.
NOMINAL_S = 0.015
DIMS = (4, 8, 16, 32)
REPEATS = 32
LOOP = 20000


def make_inputs() -> list[np.ndarray]:
    """Fixed random Hermitian matrices, one per dimension in ``DIMS``."""
    rng = np.random.default_rng(20250601)
    mats = []
    for d in DIMS:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append((g + g.conj().T) / 2)
    return mats


def run_block(mats: list[np.ndarray]) -> float:
    """One pass of the block; returns a checksum so no work is skipped."""
    acc = 0.0
    for _ in range(REPEATS):
        for h in mats:
            w, v = np.linalg.eigh(h)
            root = (v * np.sqrt(np.abs(w))[None, :]) @ v.conj().T
            acc += float(np.einsum("ij,ji->", root, h).real)
            acc += float(np.abs(h - h.conj().T).max())
    total = 0
    for k in range(LOOP):
        total += (k * k) % 7
    return acc + total


def timed_block(mats: list[np.ndarray]) -> float:
    """Wall seconds of one pass of the block."""
    t0 = time.perf_counter()
    run_block(mats)
    return time.perf_counter() - t0
