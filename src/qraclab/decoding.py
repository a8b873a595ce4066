"""Exact evaluation of the square-root measurement as a string decoder.

The central quantity is the expected Hamming distance between the encoded
string and the measurement outcome, which for the square-root measurement
is guaranteed to stay below 2p(1-p)n for every prior.  It is read from the
bundle's per-bit marginals; the identification sum is read from the full
table's diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelMismatchError, ValidationError
from .linalg import GramPovm
from .pgm import PgmBundle, _check_bundle_size
from .qrac import Ensemble, Qrac, bit_error_table, hamming_budget


@dataclass(frozen=True)
class HammingReport:
    """Exact error accounting for one (code, prior, measurement) triple."""

    expected_dh: float
    per_bit_error: np.ndarray
    bound: float


def expected_hamming_exact(q: Qrac, ens: Ensemble, pg: PgmBundle) -> HammingReport:
    """Exact per-bit and total Hamming error on ``q``, under the prior of
    ``ens``, of the square-root measurement ``pg``, read from its marginals.
    The reported bound is :func:`~qraclab.qrac.hamming_budget` of the code's
    claimed worst-case success.
    """
    if ens.prior.shape != (2**q.n,):
        raise ValidationError(f"prior must have length {2**q.n}")
    _check_bundle_size(pg, q.n)
    per_bit = bit_error_table(pg.marginals.f0s, q.encoder) @ ens.prior
    return HammingReport(
        expected_dh=float(per_bit.sum()),
        per_bit_error=per_bit,
        bound=hamming_budget(q.claimed_p, q.n),
    )


@dataclass(frozen=True)
class IdentificationCheck:
    """Sum of diagonal success terms against the 2^m packing limit."""

    lhs: float
    rhs: float
    ok: bool


def identification_bound_check(q: Qrac, full: GramPovm) -> IdentificationCheck:
    """Check sum_x Tr(Q_x rho_x) <= 2^m for a measurement with one outcome
    per n-bit string."""
    if len(full) != 2**q.n:
        raise LabelMismatchError(f"measurement has {len(full)} outcomes, code has {2**q.n} strings")
    lhs = float(full.diagonal(q.encoder).sum())
    rhs = float(2**q.m)
    return IdentificationCheck(lhs=lhs, rhs=rhs, ok=bool(lhs <= rhs + 1e-8))
