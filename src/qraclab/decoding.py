"""Exact evaluation of the square-root measurement as a string decoder.

The central quantity is the expected Hamming distance between the encoded
string and the measurement outcome, which for the square-root measurement
is guaranteed to stay below 2p(1-p)n for every prior.  It is the sum of
the per-bit errors, and bit i's error under the prior P is, in closed form,

    sum_{x: x_i = 0} P_x (1 - Tr F_i rho_x) + sum_{x: x_i = 1} P_x Tr F_i rho_x
        = P(x_i = 0) + Re Tr(F_i (T - 2 Z_i)),

with F_i the bundle's outcome-0 marginal and Z_i and T the ensemble's bit
sums, the ones the PGM build sandwiches: one O(n d^2) contraction, with no
pass over the 2^n states.  The identification sum is read from the full
table's diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelMismatchError, ValidationError
from .linalg import GramPovm
from .pgm import PgmBundle, _bit_errors, _check_bundle_size
from .qrac import Ensemble, Qrac, hamming_budget


@dataclass(frozen=True)
class HammingReport:
    """Exact error accounting for one (code, prior, measurement) triple."""

    expected_dh: float
    per_bit_error: np.ndarray
    bound: float


def expected_hamming_exact(q: Qrac, ens: Ensemble, pg: PgmBundle) -> HammingReport:
    """Exact per-bit and total Hamming error on ``q``, under the prior of
    ``ens``, of the square-root measurement ``pg``, read from its marginals
    and the ensemble's bit sums.  ``ens`` must hold the code's own states.
    The reported bound is :func:`~qraclab.qrac.hamming_budget` of the code's
    claimed worst-case success.
    """
    if ens.prior.shape != (2**q.n,):
        raise ValidationError(f"prior must have length {2**q.n}")
    if ens.states is not q.encoder and not np.array_equal(ens.states.factors, q.encoder.factors):
        raise ValidationError("ensemble states differ from the code's encoder")
    _check_bundle_size(pg, q.n)
    per_bit = _bit_errors(ens, pg.marginals.f0s, slice(None))
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
