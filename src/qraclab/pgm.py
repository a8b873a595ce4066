"""Pretty good measurement construction and optimal two-state discrimination.

For an ensemble {(P_x, rho_x)} the square-root measurement has elements
Q_y = P_y S rho_y S, with S = rho^{-1/2} the inverse square root of the
ensemble average on its support.  Whatever identity mass L falls outside
that support is assigned to the lexicographically first outcome, so the
elements always form a complete measurement.  A renormalizer R, the
inverse square root of the computed family total, makes the sum exactly
the identity up to rounding: the stored element is R Q_y R.

One factor stack gives the per-bit marginals and the full table alike
(Hausladen, Jozsa, Schumacher, Westmoreland and Wootters, PRA 1996): with
rho_y = A_y A_y^dag, element y is B_y B_y^dag with B_y = sqrt(P_y) R S A_y,
and R L R sits on outcome 0, so a build factors two d x d matrices, rho and
the family total, whatever n.  The marginals F0^{(i)} = sum_{y: y_i = 0} Q_y,
the default evaluation path, come from one
:func:`~qraclab.linalg.bit_sums` call, which forms the Gram sums of the
blocks of strings sharing their high half and of those sharing their low
half, two products of the stack whatever n, and adds up each bit's blocks;
they are held as a :class:`~qraclab.linalg.BitPovms`.  The same call
returns the total sum_y B_y B_y^dag, and the family is checked by one
identity sum read off that total, with R L R checked PSD.  For a
pure code A_y is the state vector, the 2^n elements cost one (d, d)(d, 2^n)
product, and the outcome table T[x, y] = Tr(rho_x Q_y) is one
(2^n r, d)(d, 2^n r) product (:meth:`~qraclab.linalg.GramPovm.table`).
The full-string success and the identification sum read only its
diagonal, one (r, d)(d, r) product per string
(:meth:`~qraclab.linalg.GramPovm.diagonal`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import bit_column, bit_columns
from .errors import (
    DomainError,
    IndexOutOfRangeError,
    LabelMismatchError,
    SizeCapError,
    ValidationError,
)
from .linalg import (
    SUPPORT_CUTOFF,
    BitPovms,
    GramPovm,
    GramStates,
    Povm,
    _sqrt_pinv_with_support,
    bit_sums,
    trace_norm,
)
from .qrac import Ensemble, bit_error_table

FULL_TABLE_MAX_N = 12
MARGINAL_MAX_N = 16


def _hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2, which is exactly Hermitian: the sum is formed once, in
    a new array, and halved in place."""
    out = a + a.conj().swapaxes(-2, -1)
    out *= 0.5
    return out


def _family_renormalizer(total: np.ndarray) -> np.ndarray:
    """Inverse square root of the computed outcome-family total.

    The sandwich rho^{-1/2} rho_y rho^{-1/2} leaves the family summing to
    identity only up to rounding amplified by small support eigenvalues;
    conjugating every element by this factor restores the sum exactly while
    preserving positivity."""
    w, v = np.linalg.eigh(_hermitize(total))
    w = np.clip(w, 1e-30, None)
    return (v * w**-0.5) @ v.conj().T


@dataclass(frozen=True)
class PgmBundle:
    """Square-root measurement of an ensemble: per-bit marginals plus, on
    request, the full outcome table as a factored measurement."""

    n: int
    marginals: BitPovms
    full: GramPovm | None
    support_cutoff: float


def _pgm_raw(
    prior: np.ndarray, states: GramStates, n: int, cutoff: float
) -> tuple[np.ndarray, GramPovm]:
    """Square-root measurement: the per-bit outcome-0 marginal stack of shape
    (n, dim, dim), and the full table as a GramPovm with factors R B_y
    (2^n, dim, r) and R L R on outcome 0.  Every call checks that R L R is
    PSD and that the family sums to the identity, the total read off the
    same ``bit_sums`` call as the marginals.
    """
    size, dim, rank = states.factors.shape
    rho = states.sums(prior[None])[0]
    isqrt, proj = _sqrt_pinv_with_support(_hermitize(rho), cutoff)
    leftover = _hermitize(np.eye(dim) - proj)

    # row y r + k is column k of B_y transposed: (S a)^T = a^T S^T
    rows = states.factors.transpose(0, 2, 1).reshape(size * rank, dim) @ isqrt.T
    rows *= np.repeat(np.sqrt(prior), rank)[:, None]
    ren = _family_renormalizer(rows.T @ rows.conj() + leftover)
    rows = rows @ ren.T  # frees the unrenormalized rows
    factors = rows.reshape(size, rank, dim).transpose(0, 2, 1)
    extra = _hermitize(ren @ leftover @ ren)

    zeros, total = bit_sums(factors)
    return _hermitize(zeros + extra), GramPovm._from_total(factors, extra, total)


def build_pgm(
    ensemble: Ensemble, *, full_table: bool = False, support_cutoff: float = SUPPORT_CUTOFF
) -> PgmBundle:
    """Construct the square-root measurement of ``ensemble``.

    With ``full_table`` the 2^n-outcome table is stored as well (n <= 12),
    factored; marginals alone stretch to n <= 16.
    """
    n = ensemble.n
    if full_table and n > FULL_TABLE_MAX_N:
        raise SizeCapError(f"full outcome table capped at n = {FULL_TABLE_MAX_N}, got {n}")
    if n > MARGINAL_MAX_N:
        raise SizeCapError(f"marginal construction capped at n = {MARGINAL_MAX_N}, got {n}")
    f0s, full = _pgm_raw(ensemble.prior, ensemble.states, n, support_cutoff)
    return PgmBundle(n, BitPovms(f0s), full if full_table else None, support_cutoff)


def string_labels(measurement: Povm | GramPovm, n: int) -> np.ndarray:
    """The outcome labels of a measurement labelled by n-bit strings, in
    stored order; LabelMismatchError if one lies outside 0..2^n - 1."""
    labels = np.asarray(measurement.outcomes)
    if labels.min() < 0 or labels.max() >= 2**n:
        raise LabelMismatchError(f"outcome labels must lie in 0..{2**n - 1}")
    return labels


def marginal_f0s(measurement: PgmBundle | Povm | GramPovm, n: int) -> np.ndarray:
    """Outcome-0 marginal operator of every bit, shape (n, dim, dim), from a
    bundle or from a measurement labelled by n-bit strings: F0_i is the sum
    of the elements whose label has bit i equal to 0."""
    if isinstance(measurement, PgmBundle):
        if measurement.n != n:
            raise LabelMismatchError(f"measurement built for n = {measurement.n}, code has {n}")
        return measurement.marginals.f0s
    if not isinstance(measurement, (Povm, GramPovm)):
        raise TypeError(f"expected PgmBundle or Povm, got {type(measurement).__name__}")
    labels = string_labels(measurement, n)
    if isinstance(measurement, Povm):
        return measurement.sums(bit_columns(n)[:, labels] == 0)
    factors = measurement.factors
    if len(factors) < 2**n:  # the missing outcomes are zero members
        factors = np.concatenate([factors, np.zeros((2**n - len(factors), *factors.shape[1:]))])
    return bit_sums(factors)[0] + measurement.extra


def success_prob_full(ensemble: Ensemble, pg: PgmBundle) -> float:
    """Probability that the full measurement recovers the whole string."""
    if pg.full is None:
        raise ValidationError("bundle was built without the full outcome table")
    per_x = pg.full.diagonal(ensemble.states)
    return float(ensemble.prior @ per_x)


def per_bit_success(ensemble: Ensemble, pg: PgmBundle, i: int) -> float:
    """Probability that marginal i reports bit i correctly.

    If the prior puts zero mass on one value of bit i the bit is trivially
    known and the probability is reported as 1.
    """
    if not 1 <= i <= pg.n:
        raise IndexOutOfRangeError(f"bit index {i} outside 1..{pg.n}")
    col = bit_column(i, ensemble.n)
    prior = ensemble.prior
    if prior[col == 0].sum() == 0.0 or prior[col == 1].sum() == 0.0:
        return 1.0
    err = bit_error_table(marginal_f0s(pg, ensemble.n), ensemble.states)[i - 1]
    return float(prior @ (1.0 - err))


def helstrom_pmax(p0: float, rho0, p1: float, rho1) -> float:
    """Largest success probability of any two-outcome measurement that
    distinguishes rho0 (prior p0) from rho1 (prior p1)."""
    if p0 < 0 or p1 < 0 or abs(p0 + p1 - 1.0) > 1e-9:
        raise DomainError(f"priors ({p0}, {p1}) are not a distribution")
    rho0 = np.asarray(rho0, dtype=complex)
    rho1 = np.asarray(rho1, dtype=complex)
    return 0.5 * (1.0 + trace_norm(p0 * rho0 - p1 * rho1))


def pgm_lower_bound(p_max: float) -> float:
    """Square-root-measurement guarantee for two outcomes: the PGM succeeds
    with probability at least p_max^2 + (1 - p_max)^2."""
    return p_max**2 + (1.0 - p_max) ** 2
