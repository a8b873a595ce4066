"""Pretty good measurement construction and optimal two-state discrimination.

For an ensemble {(P_x, rho_x)} the square-root measurement has elements
Q_y = P_y S rho_y S, with S = rho^{-1/2} the inverse square root of the
ensemble average on its support.  Whatever identity mass L falls outside
that support is assigned to the lexicographically first outcome, so the
elements always form a complete measurement.  A renormalizer R, the
inverse square root of the computed family total, makes the sum the
identity up to rounding: the stored element is R Q_y R.

The marginals F0^{(i)} = sum_{y: y_i = 0} Q_y, which every per-bit
evaluation reads as ``marginals.f0s``, are sandwiches of sums the build
forms once, never sums of the full table's elements (Hausladen, Jozsa,
Schumacher, Westmoreland and Wootters, PRA 1996).  With rho_y = A_y A_y^dag,
one :func:`~qraclab.linalg.bit_sums` call on the weighted factors
sqrt(P_y) A_y gives every bit's prior-weighted zero-sum Z_i and the average
rho, two products of the stack whatever n.  The ensemble makes that call,
once, and keeps the rows and sums (:attr:`~qraclab.qrac.Ensemble.weighted`):
the build sandwiches them, and the per-bit evaluators, ``per_bit_success``
here and :func:`~qraclab.decoding.expected_hamming_exact`, contract them
with the marginals, P(x_i = 0) + Re Tr(F0^{(i)} (rho - 2 Z_i)) per bit.
The solver, whose prior changes every iterate, forms its own.  One
``eigh`` of rho gives S and the eigenvectors V_L off its support, so
L = V_L V_L^dag.  The family total S rho S + L is I + E with E at rounding
level, so R needs no second ``eigh``: it is the binomial series
I - E/2 + (3/8) E^2.  F0^{(i)} is
R S Z_i S R + C C^dag with C = R V_L, held as a
:class:`~qraclab.linalg.BitPovms`.  The family is checked by one identity
sum, R S rho S R + C C^dag, and C C^dag is PSD by construction.  Where rho
is ill-conditioned on its support, the dense sandwich would amplify the
rounding of Z_i, so the weighted factors are whitened by S first and summed
again.  On request the full table is a factored measurement: element y is
B_y B_y^dag with B_y = sqrt(P_y) R S A_y, one product of the stack, and
outcome 0 adds C C^dag, held as its factor C.  For a pure code A_y is the
state vector, the 2^n elements cost one (d, d)(d, 2^n) product, and the
outcome table T[x, y] = Tr(rho_x Q_y) is one (2^n r, d)(d, 2^n r) product
and one (2^n r, d)(d, l) for C (:meth:`~qraclab.linalg.GramPovm.table`).
The full-string success and the identification sum read only its
diagonal, one (r, d)(d, r) product per string
(:meth:`~qraclab.linalg.GramPovm.diagonal`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import bit_column, bit_columns
from .errors import (
    DimensionMismatchError,
    DomainError,
    LabelMismatchError,
    SizeCapError,
    ValidationError,
)
from .linalg import (
    BitPovms,
    GramPovm,
    _check_identity_sum,
    _hermitize,
    _sqrt_pinv_with_support,
    bit_sums,
    trace_norm,
)
from .qrac import Ensemble

FULL_TABLE_MAX_N = 12
MARGINAL_MAX_N = 16
# Largest condition number of the average, on its support, at which its
# dense sums are sandwiched by S.  The sandwich's rounding grows with it,
# about 1e-17 per unit (3e-10 at 2e7); above it the weighted rows are
# whitened by S and summed again, which keeps the rounding at that of the
# rows.  Every solver iterate on the certify corpus stays below 32.
SANDWICH_MAX_CONDITION = 1e3


def _family_renormalizer(total: np.ndarray) -> np.ndarray:
    """Inverse square root of the computed outcome-family total X = I + E,
    as its binomial series to second order, R = I - E/2 + (3/8) E^2.

    The sandwich rho^{-1/2} rho_y rho^{-1/2} leaves the family summing to
    identity only up to rounding amplified by small support eigenvalues;
    conjugating every element by R restores the sum while preserving
    positivity.  R X R^dag is I up to (5/8) E^3 and rounding.  E is
    rounding amplified by the average's conditioning: its largest entry is
    near 1e-15 on well-conditioned averages and stayed below 1e-4 on the
    worst-conditioned ones measured, where the cubic term is far inside the
    identity-sum check, within ``TOL_POVM``, that every build makes."""
    eye = np.eye(len(total))
    dev = _hermitize(total)
    dev -= eye
    ren = dev @ dev
    ren *= 0.375
    ren -= 0.5 * dev
    ren += eye
    return ren


@dataclass(frozen=True)
class PgmBundle:
    """Square-root measurement of an ensemble: per-bit marginals plus, on
    request, the full outcome table as a factored measurement."""

    marginals: BitPovms
    full: GramPovm | None

    @property
    def n(self) -> int:
        return len(self.marginals)


def _pgm_raw(
    weighted: tuple[np.ndarray, np.ndarray, np.ndarray], full_table: bool = False
) -> tuple[np.ndarray, GramPovm | None]:
    """Square-root measurement: the per-bit outcome-0 marginal stack of shape
    (n, dim, dim), and, with ``full_table``, the full table as a GramPovm
    with factors sqrt(P_y) R S A_y, shape (2^n, dim, r), and C on outcome 0.

    ``weighted`` is an ensemble's :func:`~qraclab.qrac.weighted_sums`: the
    sqrt(P)-weighted rows, each bit's zero-sum Z_i and the average rho.
    The marginals are the sandwiches R S Z_i S R plus C C^dag, with C = R V_L
    the renormalized eigenvectors off rho's support.  S rho S is formed
    once, for R and for the total.  Above ``SANDWICH_MAX_CONDITION`` the
    sums are taken again over the whitened rows, and S is the identity from
    there on; the given sums are left as they are.
    Every call checks that R S rho S R + C C^dag is the identity.
    """
    rows, zeros, rho = weighted
    # row y r + k is column k of sqrt(P_y) A_y transposed
    size, rank, dim = rows.shape
    isqrt, off_support, condition = _sqrt_pinv_with_support(_hermitize(rho))
    if condition > SANDWICH_MAX_CONDITION:
        # whiten the rows, (S a)^T = a^T S^T, and sum them again: S Z_i S and
        # S rho S as sums of Gram products, rounded as the rows are
        rows = rows @ isqrt.T
        zeros, whitened = bit_sums(rows.transpose(0, 2, 1))
        isqrt = np.eye(dim)
    else:
        whitened = isqrt @ rho @ isqrt
    ren = _family_renormalizer(whitened + off_support @ off_support.conj().T)
    sandwich = ren @ isqrt
    spill = ren @ off_support
    extra = _hermitize(spill @ spill.conj().T)
    _check_identity_sum(ren @ whitened @ ren.conj().T + extra)
    full = None
    if full_table:
        # the factors' rows a^T (R S)^T in one product
        rows = rows.reshape(size * rank, dim) @ sandwich.T
        full = GramPovm._from_checked(rows.reshape(size, rank, dim).transpose(0, 2, 1), spill)
    return _hermitize(sandwich @ zeros @ sandwich.conj().T + extra), full


def build_pgm(ensemble: Ensemble, *, full_table: bool = False) -> PgmBundle:
    """Construct the square-root measurement of ``ensemble``.

    With ``full_table`` the 2^n-outcome table is stored as well (n <= 12),
    factored; marginals alone stretch to n <= 16.
    """
    n = ensemble.n
    if full_table and n > FULL_TABLE_MAX_N:
        raise SizeCapError(f"full outcome table capped at n = {FULL_TABLE_MAX_N}, got {n}")
    if n > MARGINAL_MAX_N:
        raise SizeCapError(f"marginal construction capped at n = {MARGINAL_MAX_N}, got {n}")
    f0s, full = _pgm_raw(ensemble.weighted, full_table)
    return PgmBundle(BitPovms(f0s), full)


def _check_bundle(pg: PgmBundle, ensemble: Ensemble) -> None:
    """LabelMismatchError unless ``pg`` was built for the ensemble's n-bit
    strings, DimensionMismatchError unless for its states' dimension."""
    if pg.n != ensemble.n:
        raise LabelMismatchError(f"measurement built for n = {pg.n}, code has {ensemble.n}")
    dim = pg.marginals.f0s.shape[1]
    if dim != ensemble.states.dim:
        raise DimensionMismatchError(
            f"measurement built for dimension {dim}, states have {ensemble.states.dim}"
        )


def success_prob_full(ensemble: Ensemble, pg: PgmBundle) -> float:
    """Probability that the full measurement recovers the whole string."""
    _check_bundle(pg, ensemble)
    if pg.full is None:
        raise ValidationError("bundle was built without the full outcome table")
    per_x = pg.full.diagonal(ensemble.states)
    return float(ensemble.prior @ per_x)


def _bit_errors(ensemble: Ensemble, f0s: np.ndarray, bits: int | slice) -> np.ndarray:
    """Chance, under the ensemble's prior, that the outcome-0 operators
    ``f0s`` read each bit in ``bits`` (0-based) wrongly:
    P(x_i = 0) + Re Tr(F_i (T - 2 Z_i)), from the ensemble's bit sums Z_i
    and T, one O(d^2) contraction per bit and no pass over the states."""
    _, zeros, total = ensemble.weighted
    zero_mass = (bit_columns(ensemble.n)[bits] == 0) @ ensemble.prior
    return zero_mass + np.einsum("...jk,...kj->...", f0s[bits], total - 2.0 * zeros[bits]).real


def per_bit_success(ensemble: Ensemble, pg: PgmBundle, i: int) -> float:
    """Probability that marginal i reports bit i correctly.

    If the prior puts zero mass on one value of bit i the bit is trivially
    known and the probability is reported as 1.
    """
    _check_bundle(pg, ensemble)
    col = bit_column(i, ensemble.n)
    prior = ensemble.prior
    if prior[col == 0].sum() == 0.0 or prior[col == 1].sum() == 0.0:
        return 1.0
    return float(1.0 - _bit_errors(ensemble, pg.marginals.f0s, i - 1))


def helstrom_pmax(p0: float, rho0, p1: float, rho1) -> float:
    """Largest success probability of any two-outcome measurement that
    distinguishes rho0 (prior p0) from rho1 (prior p1)."""
    if not (p0 >= 0 and p1 >= 0 and abs(p0 + p1 - 1.0) <= 1e-9):
        raise DomainError(f"priors ({p0}, {p1}) are not a distribution")
    rho0 = np.asarray(rho0, dtype=complex)
    rho1 = np.asarray(rho1, dtype=complex)
    return 0.5 * (1.0 + trace_norm(p0 * rho0 - p1 * rho1))


def pgm_lower_bound(p_max: float) -> float:
    """Square-root-measurement guarantee for two outcomes: the PGM succeeds
    with probability at least p_max^2 + (1 - p_max)^2."""
    return p_max**2 + (1.0 - p_max) ** 2
