"""Seeded instance generators shared by the verification suites.

Everything here is reproducible from a single integer seed; instance i of a
batch draws from its own child stream so batches can be cut or parallelized
without changing what any instance sees.
"""

from __future__ import annotations

import numpy as np

from .info import ClassicalChannel
from .qrac import (
    Ensemble,
    Qrac,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
)
from .rng import TAG_CORPUS, stream

DEFAULT_P_MIN = 0.55


def random_qrac_corpus(
    count: int,
    seed: int,
    n_max: int = 6,
    m_max: int = 3,
) -> list[Qrac]:
    """``count`` random codes with uniformly drawn (n, m) and validated
    worst-case success above ``DEFAULT_P_MIN``; rejection keeps only usable
    codes."""
    picker = stream(seed, TAG_CORPUS, 0)
    out: list[Qrac] = []
    attempt = 0
    cap = 200 * count
    while len(out) < count and attempt < cap:
        n = int(picker.integers(1, n_max + 1))
        m = int(picker.integers(1, m_max + 1))
        q = build_random_qrac(n, m, seed=seed * cap + attempt)
        attempt += 1
        if q.claimed_p > DEFAULT_P_MIN:
            out.append(q)
    if len(out) < count:
        raise RuntimeError(
            f"only {len(out)} of {count} codes cleared p > {DEFAULT_P_MIN} in {cap} attempts"
        )
    return out


def reference_corpus(count: int, seed: int) -> list[Qrac]:
    """The standard code, its tensor powers up to the fourth, then ``count``
    random codes."""
    base = build_standard_2to1()
    out = [base]
    out.extend(build_tensor_power(base, k) for k in range(2, 5))
    out.extend(random_qrac_corpus(count, seed))
    return out


def random_priors(size: int, count: int, seed: int) -> list[np.ndarray]:
    """Dirichlet priors over ``size`` atoms with occasionally spiky shape."""
    out = []
    for idx in range(count):
        rng = stream(seed, TAG_CORPUS, 1, idx)
        alpha = 1.0 if idx % 3 else 0.3
        out.append(rng.dirichlet(np.full(size, alpha)))
    return out


def random_channels(count: int, seed: int) -> list[ClassicalChannel]:
    """Random row-stochastic tables with |X|, |Y| from 2 to 16; every other
    instance has about a quarter of its entries set to exact zeros."""
    out = []
    for idx in range(count):
        rng = stream(seed, TAG_CORPUS, 2, idx)
        n_in = int(rng.integers(2, 17))
        n_out = int(rng.integers(2, 17))
        table = rng.dirichlet(np.ones(n_out), size=n_in)
        if idx % 2:
            mask = rng.random((n_in, n_out)) < 0.25
            mask[np.arange(n_in), table.argmax(axis=1)] = False
            table = np.where(mask, 0.0, table)
            table /= table.sum(axis=1, keepdims=True)
        out.append(ClassicalChannel(table))
    return out


def _random_density(rng: np.random.Generator, dim: int, pure: bool) -> np.ndarray:
    """A random density matrix, left to the Ensemble to validate: |v><v| for
    a complex Gaussian v divided by its norm twice, or G G^dag / Tr(G G^dag)."""
    if pure:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec = vec / np.linalg.norm(vec)
        vec = vec / np.linalg.norm(vec)
        return np.outer(vec, vec.conj())
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_two_state_ensembles(count: int, seed: int) -> list[Ensemble]:
    """Two-state discrimination instances over one or two qubits, mixing pure
    and full-rank states under non-uniform priors."""
    out = []
    for idx in range(count):
        rng = stream(seed, TAG_CORPUS, 3, idx)
        dim = 2 if idx % 2 else 4
        p0 = float(rng.uniform(0.02, 0.98))
        states = (
            _random_density(rng, dim, pure=bool(rng.integers(2))),
            _random_density(rng, dim, pure=bool(rng.integers(2))),
        )
        out.append(Ensemble((p0, 1.0 - p0), states))
    return out
