"""Exact and sampled evaluation of string decoders.

The central quantity is the expected Hamming distance between the encoded
string and the measurement outcome, which for the square-root measurement
is guaranteed to stay below 2p(1-p)n for every prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import GramPovm, Povm
from .pgm import PgmBundle, marginal_f0s, string_labels
from .qrac import Ensemble, Qrac, bit_error_table, hamming_budget
from .rng import TAG_SAMPLE, stream
from .serialize import SCHEMA_VERSION, rows_to_csv


@dataclass(frozen=True)
class HammingReport:
    """Exact error accounting for one (code, prior, measurement) triple."""

    n: int
    expected_dh: float
    per_bit_error: np.ndarray
    per_x_expected_dh: np.ndarray
    bound: float
    satisfied: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "expected_dh": self.expected_dh,
            "per_bit_error": [float(v) for v in self.per_bit_error],
            "per_x_expected_dh": [float(v) for v in self.per_x_expected_dh],
            "bound": self.bound,
            "satisfied": bool(self.satisfied),
        }

    def to_csv(self, path=None) -> str:
        share = self.bound / self.n
        rows = [(i + 1, float(e), share) for i, e in enumerate(self.per_bit_error)]
        return rows_to_csv(("i", "per_bit_error", "bound_share"), rows, path)


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


def sample_decode(q: Qrac, x: int, measurement, seed: int, size: int | None = None, replicate: int = 0):
    """Draw outcome strings for input ``x`` from a full measurement.

    Sampling inverts the CDF over the outcome table ordered by label, so a
    given (seed, x, replicate) triple always reproduces the same draws.
    Returns a single label, or an array of them when ``size`` is given.
    """
    if isinstance(measurement, PgmBundle):
        if measurement.full is None:
            raise ValidationError("measurement bundle has no full outcome table")
        measurement = measurement.full
    if not 0 <= x < 2**q.n:
        raise ValidationError(f"x = {x} outside 0..{2**q.n - 1}")
    labels = string_labels(measurement, q.n)
    order = np.argsort(labels)
    labels = labels[order]
    probs = measurement.probabilities(q.encoder[x].mat)[order]
    probs = np.clip(probs, 0.0, None)
    cdf = np.cumsum(probs)
    if abs(cdf[-1] - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {cdf[-1]}, not 1")
    rng = stream(seed, TAG_SAMPLE, x, replicate)
    u = rng.random(1 if size is None else size)
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    idx = np.minimum(idx, len(labels) - 1)
    drawn = labels[idx]
    return int(drawn[0]) if size is None else drawn


@dataclass(frozen=True)
class IdentificationCheck:
    """Sum of diagonal success terms against the 2^m packing limit."""

    lhs: float
    rhs: float
    ok: bool


def identification_bound_check(
    q: Qrac, measurement: Povm | GramPovm | PgmBundle, tol: float = 1e-8
) -> IdentificationCheck:
    """Check sum_x Tr(Q_x rho_x) <= 2^m for a string-labeled measurement."""
    if isinstance(measurement, PgmBundle):
        if measurement.full is None:
            raise ValidationError("measurement bundle has no full outcome table")
        measurement = measurement.full
    string_labels(measurement, q.n)
    lhs = measurement.diagonal(q.encoder).sum()
    rhs = float(2**q.m)
    return IdentificationCheck(lhs=float(lhs), rhs=rhs, ok=bool(lhs <= rhs + tol))


def markov_tail(report: HammingReport, c: float) -> float:
    """Guaranteed bound on Pr[d_H > c * expected_dh], which is 1/c.

    A zero expected distance forces the tail probability to zero.
    """
    if c <= 1.0:
        raise DomainError(f"c must exceed 1, got {c}")
    if report.expected_dh == 0.0:
        return 0.0
    return 1.0 / c
