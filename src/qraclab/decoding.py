"""Exact evaluation of string decoders.

The central quantity is the expected Hamming distance between the encoded
string and the measurement outcome, which for the square-root measurement
is guaranteed to stay below 2p(1-p)n for every prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import GramPovm, Povm
from .pgm import PgmBundle, marginal_f0s, string_labels
from .qrac import Ensemble, Qrac, bit_error_table, hamming_budget


@dataclass(frozen=True)
class HammingReport:
    """Exact error accounting for one (code, prior, measurement) triple."""

    n: int
    expected_dh: float
    per_bit_error: np.ndarray
    per_x_expected_dh: np.ndarray
    bound: float
    satisfied: bool


def expected_hamming_exact(q: Qrac, prior, measurement) -> HammingReport:
    """Exact per-bit and total Hamming error of ``measurement`` on ``q``.

    ``measurement`` may be a PgmBundle (marginals are used directly) or a
    full measurement (Povm or GramPovm) labeled by string indices.  The
    reported bound is :func:`~qraclab.qrac.hamming_budget` of the code's
    claimed worst-case success.
    """
    if isinstance(prior, Ensemble):
        prior = prior.prior
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (2**q.n,):
        raise ValidationError(f"prior must have length {2**q.n}")
    err = bit_error_table(marginal_f0s(measurement, q.n), q.encoder)
    per_bit = err @ prior
    per_x = err.sum(axis=0)
    bound = hamming_budget(q.claimed_p, q.n)
    expected = float(per_bit.sum())
    return HammingReport(
        n=q.n,
        expected_dh=expected,
        per_bit_error=per_bit,
        per_x_expected_dh=per_x,
        bound=bound,
        satisfied=bool(expected <= bound + 1e-9),
    )


@dataclass(frozen=True)
class IdentificationCheck:
    """Sum of diagonal success terms against the 2^m packing limit."""

    lhs: float
    rhs: float
    ok: bool


def identification_bound_check(
    q: Qrac, measurement: Povm | GramPovm | PgmBundle
) -> IdentificationCheck:
    """Check sum_x Tr(Q_x rho_x) <= 2^m for a string-labeled measurement."""
    if isinstance(measurement, PgmBundle):
        if measurement.full is None:
            raise ValidationError("measurement bundle has no full outcome table")
        measurement = measurement.full
    string_labels(measurement, q.n)
    lhs = measurement.diagonal(q.encoder).sum()
    rhs = float(2**q.m)
    return IdentificationCheck(lhs=float(lhs), rhs=rhs, ok=bool(lhs <= rhs + 1e-8))

