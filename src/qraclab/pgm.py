"""Pretty good measurement construction and optimal two-state discrimination.

For an ensemble {(P_x, rho_x)} the square-root measurement has elements
Q_y = P_y rho^{-1/2} rho_y rho^{-1/2} with rho the ensemble average and
the inverse square root taken on the support of rho.  Whatever identity
mass falls outside that support is assigned to the lexicographically
first outcome so the elements always form a complete measurement.

Per-bit marginals F_b^{(i)} = sum_{y: y_i = b} Q_y are computed directly
from the prior without materializing the full outcome table; that is the
default evaluation path.

Every element is a Gram product P_y (S R_y)(S R_y)^dag with S = rho^{-1/2}
and R_y a square root of rho_y, which keeps it PSD; a per-bit marginal is
the same product with R the square root of its prior-weighted sum.  For a
pure state rho_y^2 = rho_y, so rho_y is its own square root: on a code of
pure states the full table needs no eigendecomposition of its 2^n states,
only of rho, of the 2n per-bit sums and of the renormalizers.
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
    Povm,
    _sqrt_pinv_with_support,
    eig_hermitian,
    paired_traces,
    trace_norm,
)
from .qrac import Ensemble, bit_error_table

FULL_TABLE_MAX_N = 12
MARGINAL_MAX_N = 16
PURE_TOL = 1e-13  # |Tr rho - 1|, |Tr rho^2 - 1| below which a state is its own square root


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-2, -1)) / 2


def _psd_sqrt_stack(mats: np.ndarray) -> np.ndarray:
    """Hermitian square roots of a (k, d, d) stack of PSD matrices.

    A member with both Tr M and Tr M^2 within PURE_TOL of 1 is a pure state,
    M^2 = M, and is its own square root: (Tr M)^2 - Tr M^2 is twice the sum
    of the pairwise eigenvalue products, so its second eigenvalue is below
    about PURE_TOL.  ``eigh`` runs only on the others, clipping the tiny
    negative eigenvalues that rounding introduces.  When every member is
    pure the stack itself is returned, uncopied.
    """
    traces = np.trace(mats, axis1=1, axis2=2).real
    purities = paired_traces(mats, mats)
    mixed = (np.abs(traces - 1.0) > PURE_TOL) | (np.abs(purities - 1.0) > PURE_TOL)
    if not mixed.any():
        return mats
    w, v = np.linalg.eigh(_hermitize(mats[mixed]))
    root = np.sqrt(np.clip(w, 0.0, None))
    out = mats.copy()
    out[mixed] = (v * root[..., None, :]) @ v.conj().swapaxes(-2, -1)
    return out


def _family_renormalizer(total: np.ndarray) -> np.ndarray:
    """Inverse square root of a computed outcome-family total, or of a stack
    of them.

    The sandwich rho^{-1/2} rho_y rho^{-1/2} leaves the family summing to
    identity only up to rounding amplified by small support eigenvalues;
    conjugating every element by this factor restores the sum exactly while
    preserving positivity."""
    w, v = np.linalg.eigh(_hermitize(total))
    w = np.clip(w, 1e-30, None)
    return (v * (w**-0.5)[..., None, :]) @ v.conj().swapaxes(-2, -1)


@dataclass(frozen=True)
class PgmBundle:
    """Square-root measurement of an ensemble: per-bit marginals plus, on
    request, the full outcome table."""

    n: int
    marginals: tuple[Povm, ...]
    full: Povm | None
    support_cutoff: float


def _pgm_raw(
    prior: np.ndarray,
    stack: np.ndarray,
    n: int,
    cutoff: float,
    full_table: bool,
    sqrt_stack: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Square-root measurement as raw arrays: per-bit outcome-0/1 marginal
    stacks of shape (n, dim, dim) and, on request, the full (2^n, dim, dim)
    outcome table.

    Elements are assembled in Gram form (S sqrt(M)) (S sqrt(M))^dag, with
    S = rho^{-1/2} on the support, so they stay PSD even when tiny prior
    masses meet a large inverse square root.  The Gram factor sqrt(M) of a
    pure state is the state itself; ``eigh`` factors only mixed states and
    the per-bit sums.  The 2n per-bit sums sum_{x: x_i = b} P_x rho_x are
    one masked matmul.  ``sqrt_stack`` lets callers that sweep priors over a
    fixed state stack factor the states once.
    """
    size, dim = stack.shape[:2]
    rho = np.einsum("x,xij->ij", prior, stack)
    isqrt, proj = _sqrt_pinv_with_support(_hermitize(rho), cutoff)
    leftover = _hermitize(np.eye(dim) - proj)

    # row (i, b) holds the prior mass of the strings whose bit i is b
    cols = bit_columns(n)
    masks = np.stack([cols == 0, cols == 1], axis=1) * prior
    sums = (masks.reshape(2 * n, size) @ stack.reshape(size, -1)).reshape(2 * n, dim, dim)
    half = isqrt @ _psd_sqrt_stack(_hermitize(sums))
    gram = (half @ half.conj().swapaxes(-2, -1)).reshape(n, 2, dim, dim)
    f0 = gram[:, 0] + leftover
    ren = _family_renormalizer(f0 + gram[:, 1])
    f0s = _hermitize(ren @ f0 @ ren)
    f1s = _hermitize(ren @ gram[:, 1] @ ren)

    full = None
    if full_table:
        if sqrt_stack is None:
            sqrt_stack = _psd_sqrt_stack(stack)
        half = isqrt @ sqrt_stack
        full = half @ half.conj().swapaxes(-2, -1)
        full *= prior[:, None, None]
        full[0] += leftover
        ren = _family_renormalizer(full.sum(axis=0))
        full = _hermitize(ren @ full @ ren)
    return f0s, f1s, full


def build_pgm(
    ensemble: Ensemble, *, full_table: bool = False, support_cutoff: float = SUPPORT_CUTOFF
) -> PgmBundle:
    """Construct the square-root measurement of ``ensemble``.

    With ``full_table`` the 2^n-outcome table is stored as well (n <= 12);
    marginals alone stretch to n <= 16.
    """
    n = ensemble.n
    if full_table and n > FULL_TABLE_MAX_N:
        raise SizeCapError(f"full outcome table capped at n = {FULL_TABLE_MAX_N}, got {n}")
    if n > MARGINAL_MAX_N:
        raise SizeCapError(f"marginal construction capped at n = {MARGINAL_MAX_N}, got {n}")
    f0s, f1s, full_elems = _pgm_raw(
        ensemble.prior, ensemble.state_stack, n, support_cutoff, full_table
    )
    marginals = tuple(Povm((f0s[i], f1s[i]), outcomes=(0, 1)) for i in range(n))
    full = None
    if full_table:
        full = Povm(full_elems, outcomes=tuple(range(2**n)))
    return PgmBundle(n, marginals, full, support_cutoff)


def marginal_f0s(measurement: PgmBundle | Povm, n: int) -> np.ndarray:
    """Outcome-0 marginal operator of every bit, shape (n, dim, dim), from a
    bundle or from a measurement labelled by n-bit strings: F0_i is the sum
    of the elements whose label has bit i equal to 0."""
    if isinstance(measurement, PgmBundle):
        if measurement.n != n:
            raise LabelMismatchError(f"measurement built for n = {measurement.n}, code has {n}")
        return np.stack([mv.elements[0] for mv in measurement.marginals])
    if not isinstance(measurement, Povm):
        raise TypeError(f"expected PgmBundle or Povm, got {type(measurement).__name__}")
    labels = np.asarray(measurement.outcomes)
    if labels.min() < 0 or labels.max() >= 2**n:
        raise LabelMismatchError(f"outcome labels must lie in 0..{2**n - 1}")
    zero = (bit_columns(n)[:, labels] == 0).astype(complex)
    elems = measurement.element_stack
    return (zero @ elems.reshape(len(labels), -1)).reshape(n, *elems.shape[1:])


def success_prob_full(ensemble: Ensemble, pg: PgmBundle) -> float:
    """Probability that the full measurement recovers the whole string."""
    if pg.full is None:
        raise ValidationError("bundle was built without the full outcome table")
    per_x = paired_traces(pg.full.element_stack, ensemble.state_stack)
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
    err = bit_error_table(marginal_f0s(pg, ensemble.n), ensemble.state_stack)[i - 1]
    return float(prior @ (1.0 - err))


def helstrom_pmax(p0: float, rho0, p1: float, rho1) -> float:
    """Largest success probability of any two-outcome measurement that
    distinguishes rho0 (prior p0) from rho1 (prior p1)."""
    if p0 < 0 or p1 < 0 or abs(p0 + p1 - 1.0) > 1e-9:
        raise DomainError(f"priors ({p0}, {p1}) are not a distribution")
    rho0 = np.asarray(rho0, dtype=complex)
    rho1 = np.asarray(rho1, dtype=complex)
    return 0.5 * (1.0 + trace_norm(p0 * rho0 - p1 * rho1))


def helstrom_measurement(p0: float, rho0, p1: float, rho1) -> Povm:
    """The measurement achieving helstrom_pmax: outcome 0 projects onto the
    positive eigenspace of p0*rho0 - p1*rho1."""
    if p0 < 0 or p1 < 0 or abs(p0 + p1 - 1.0) > 1e-9:
        raise DomainError(f"priors ({p0}, {p1}) are not a distribution")
    delta = np.asarray(rho0, dtype=complex) * p0 - np.asarray(rho1, dtype=complex) * p1
    vals, vecs = eig_hermitian(delta)
    pos = vecs[:, vals > 0]
    m0 = pos @ pos.conj().T
    return Povm((m0, np.eye(delta.shape[0]) - m0), outcomes=(0, 1))


def check_pgm_lower_bound(p_pgm: float, p_max: float, outcomes: int, tol: float = 1e-9) -> bool:
    """Square-root-measurement guarantee: p_pgm >= p_max^2 + (1-p_max)^2/(k-1)."""
    if outcomes < 2:
        raise DomainError("need at least two outcomes")
    return p_pgm >= p_max**2 + (1.0 - p_max) ** 2 / (outcomes - 1) - tol
