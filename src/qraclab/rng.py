"""Deterministic, splittable random streams.

Every stochastic routine in the package derives its generator from an
integer seed plus a small integer path, so independent streams can be
handed out per (x, replicate) pair without coordination.  Philox is
counter-based, which keeps the streams cheap to fork and reproducible
across platforms.  :func:`stream` hashes (seed, path) into a key, for builds
and batches; :func:`counter_stream` keys by the seed and addresses by the
path, for per-message draws, and a message keys its streams once.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError

# Stream path tags.  Keeping them in one place avoids accidental collisions
# between modules that fork streams from the same user seed.
TAG_SHARED = 0
TAG_ALICE = 1
TAG_BOB = 2
TAG_NEWMAN = 4
TAG_BATCH = 5
TAG_CORPUS = 6
TAG_ENCODE = 7


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the stream identified by ``(seed, *path)``.

    Distinct paths yield statistically independent streams for the same
    seed; the same (seed, path) always yields the same stream.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


class _Key(np.random.bit_generator.ISpawnableSeedSequence):
    """Philox's two key words for ``seed``, checked once with the words of
    ``path`` and handed over as they are (``Philox(key=...)`` would also seed
    an unused SeedSequence from OS entropy, its main cost)."""

    def __init__(self, seed: int, *path: int):
        seed = operator.index(seed)
        if len(path) > 3:
            raise DomainError(f"a counter path has at most 3 words, got {len(path)}")
        if not 0 <= seed < 2**128:
            raise DomainError(f"seed must lie in [0, 2^128), got {seed}")
        for word in path:
            if not 0 <= word < 2**64:
                raise DomainError(f"stream path words must lie in [0, 2^64), got {path}")
        self.words = np.array((seed & (2**64 - 1), seed >> 64), dtype=np.uint64)

    def generate_state(self, n_words, dtype=None):
        return self.words

    def spawn(self, n_children):
        raise NotImplementedError("counter streams are addressed, not spawned")

    def stream(self, *path: int) -> np.random.Generator:
        """The stream at ``path``, at most 3 words in [0, 2^64) each."""
        counter = np.array((0, *path, *(0,) * (3 - len(path))), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(self, counter=counter))


def counter_stream(seed: int, *path: int) -> np.random.Generator:
    """``Philox(key=seed, counter=(0, *path))``: word 0 of the 256-bit
    counter counts positions within the stream, so streams with distinct
    paths of up to 3 words never overlap.  Each tag uses one path length,
    as paths that differ only by trailing zeros name the same stream."""
    return _Key(seed, *path).stream(*path)
