"""Entropies, max-relative entropy, and one-shot channel capacities.

All logarithms are base 2.  Probabilities below 1e-15 (relative to the
largest) are treated as exact zeros inside x*log(x).  The max-information
of a genuinely quantum side register is out of scope here, which is why the
capacity routines take classical channel tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import bit_columns, hamming_table
from .errors import BadSplitError, DomainError, ValidationError

EIG_ZERO_CUTOFF = 1e-15  # relative, inside x*log2(x) sums


def _xlog2x_sum(vals: np.ndarray) -> float:
    vals = np.asarray(vals, dtype=float)
    top = vals.max(initial=0.0)
    if top <= 0.0:
        return 0.0
    kept = vals[vals > EIG_ZERO_CUTOFF * top]
    return float(-(kept * np.log2(kept)).sum())


def binary_entropy(q: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"binary entropy needs q in [0, 1], got {q}")
    return _xlog2x_sum(np.array([q, 1.0 - q]))


def max_relative_entropy(p, q) -> float:
    """log2 of the largest ratio p(y)/q(y); +inf outside q's support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise BadSplitError("distributions differ in length")
    sup = p > 0
    if (q[sup] <= 0).any():
        return math.inf
    return float(np.log2((p[sup] / q[sup]).max()))


# ---------------------------------------------------------------------------
# classical channels


@dataclass(frozen=True, eq=False)
class ClassicalChannel:
    """Row-stochastic table E(x)(y), one row per input symbol."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValidationError(f"expected a 2-D table, got shape {table.shape}")
        if not table.min() >= 0:  # NaN fails too
            raise ValidationError("channel has negative or NaN entries")
        if not np.abs(table.sum(axis=1) - 1.0).max() <= 1e-12:
            raise ValidationError("channel rows must each sum to 1 within 1e-12")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def in_size(self) -> int:
        return self.table.shape[0]

    @property
    def out_size(self) -> int:
        return self.table.shape[1]

    @cached_property
    def bit_errors(self) -> np.ndarray:
        """For a channel on n-bit strings, err[i-1, x] = chance that bit i
        of the output differs from bit i of the input x: the sum of T[x, y]
        over y with y_i != x_i, shape (n, 2^n), read-only and formed once.
        Row x of T read at x XOR e is the law of the flip pattern e, so the
        table is one product with the 0/1 bit columns."""
        size = self.in_size
        n = size.bit_length() - 1
        if self.table.shape != (2**n, 2**n):
            raise ValidationError(f"not a channel on n-bit strings: shape {self.table.shape}")
        xs = np.arange(size)
        flips = self.table[xs[:, None], xs[:, None] ^ xs]  # [x, e] = T[x, x XOR e]
        err = (flips @ bit_columns(n).T).T
        err.flags.writeable = False
        return err


@dataclass(frozen=True, eq=False)
class MaxCapacityResult:
    value: float
    sigma: np.ndarray
    column_max_sum: float  # sum_y max_x E(x)(y), i.e. 2^value


def max_channel_capacity(channel: ClassicalChannel) -> MaxCapacityResult:
    """One-shot max-information capacity log2 sum_y max_x E(x)(y).

    The returned sigma is the reference distribution attaining the inner
    minimum (the normalized column maxima); it need not be unique.
    """
    g = channel.table.max(axis=0)
    total = g.sum()
    sigma = g / total
    sigma.flags.writeable = False
    return MaxCapacityResult(value=float(np.log2(total)), sigma=sigma, column_max_sum=float(total))


def max_channel_capacity_lp(channel: ClassicalChannel) -> float:
    """Independent LP evaluation of the same capacity.

    Minimizes t subject to E(x)(y) <= t*sigma(y) over distributions sigma,
    linearized through tau = t*sigma so an off-the-shelf solver applies.
    """
    # imported here, not at the top: scipy.optimize is slow to load and only
    # this cross-check needs it
    from scipy.optimize import linprog

    n_in, n_out = channel.in_size, channel.out_size
    c = np.ones(n_out)
    a_ub = np.repeat(-np.eye(n_out), n_in, axis=0)
    b_ub = -channel.table.T.reshape(-1)  # tau_y >= E(x)(y) for every x
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n_out, method="highs")
    if not res.success:
        raise RuntimeError(f"capacity LP failed: {res.message}")
    return float(np.log2(res.fun))


# ---------------------------------------------------------------------------
# lower bounds on encoding size


def hamming_budget(p: float, n: int) -> float:
    """Expected Hamming error 2p(1-p)n the square-root measurement stays
    within on an n-bit code of worst-case success p.

    A claim below 1/2 is read as p = 1/2: every encoder is a p = 1/2 code
    under the coin-flip decoder I/2, so the budget is never below n/2.
    """
    p = max(p, 0.5)
    return 2.0 * p * (1.0 - p) * n


@dataclass(frozen=True)
class QubitLowerBound:
    """Two lower bounds on the qubits needed for worst-case success p.

    ``from_hamming`` comes from the expected-distance guarantee of the
    square-root measurement; ``from_entropy`` is the classic per-bit
    entropy bound, which is stronger but proved differently.
    """

    from_hamming: float
    from_entropy: float


def qubit_lower_bound(n: int, p: float) -> QubitLowerBound:
    if not 0.5 < p <= 1.0:
        raise DomainError(f"success probability must lie in (1/2, 1], got {p}")
    if n < 1:
        raise DomainError("n must be positive")
    from_hamming = (1.0 - binary_entropy(hamming_budget(p, 1))) * n - math.log2(n + 1)
    from_entropy = (1.0 - binary_entropy(p)) * n
    return QubitLowerBound(from_hamming=from_hamming, from_entropy=from_entropy)


@dataclass(frozen=True)
class DistanceConditioningReport:
    """Entropy accounting for conditioning on the decoder's distance count."""

    h_x_given_y: float
    h_x_given_yd: float
    side_information: float  # log2(n+1)


def distance_conditioning_check(joint_xy: np.ndarray, n: int) -> DistanceConditioningReport:
    """The three terms of the chain H(X|Y,D) <= H(X|Y) <= H(X|Y,D) + log2(n+1)
    on an exact classical joint over string pairs, with D the Hamming
    distance, for the caller to check."""
    joint = np.asarray(joint_xy, dtype=float)
    size = 2**n
    if joint.shape != (size, size):
        raise BadSplitError(f"joint must be {size} x {size} for n = {n}")
    if not (abs(joint.sum() - 1.0) <= 1e-9 and joint.min() >= -1e-12):
        raise ValidationError("joint is not a probability table")
    h_xy = _xlog2x_sum(joint.reshape(-1))
    h_y = _xlog2x_sum(joint.sum(axis=0))
    # D is a function of (X, Y): the (Y, D) cells, binned in x order
    cells = np.arange(size) * (n + 1) + hamming_table(n)  # [x, y] = y (n+1) + d
    p_yd = np.bincount(cells.reshape(-1), joint.reshape(-1), size * (n + 1))
    h_yd = _xlog2x_sum(p_yd)
    h_x_given_y = h_xy - h_y
    h_x_given_yd = h_xy - h_yd  # H(X,Y,D) = H(X,Y) since D is determined
    return DistanceConditioningReport(
        h_x_given_y=h_x_given_y,
        h_x_given_yd=h_x_given_yd,
        side_information=math.log2(n + 1),
    )
