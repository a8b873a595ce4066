"""Worst-case decoding game solved by multiplicative weights.

An adversary picks the input string, the decoder picks a measurement; the
payoff is the expected Hamming distance between the true string and the
decoded one.  Running multiplicative weights over the 2^n inputs, with the
square-root measurement as the best response to each prior, produces an
averaged measurement whose worst-case expected distance is certified
directly by evaluating all 2^n inputs.

A bit's error on input x is affine in that bit's outcome-0 operator, so
the average's value on every input is the running mean of the iterates'
per-input values: one per-bit table per iteration, from the iterate's
marginals alone.  The solver keeps the priors, the only input to each
iterate, and no measurement: the averaged measurement is rebuilt from
them, iterate by iterate, when :attr:`GameSolution.measurement` is first
read.  A run that does not certify within its iteration budget returns
its best average, marked unconverged, in the same record; it does not
raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bits import bit_columns
from .errors import DomainError, LabelMismatchError, SizeCapError
from .linalg import Povm, argmax_first, gram_dense
from .pgm import _pgm_raw
from .qrac import Qrac, bit_error_table, hamming_budget, weighted_sums

SOLVER_MAX_N = 8
SOLVER_MAX_M = 4
# Largest duality gap per bit at which the solver stops.
GAP_SHARE = 0.05


def certificate_ceiling(bound: float, eps: float, n: int) -> float:
    """The worst-case value a certificate must stay within: the 2p(1-p)n
    ``bound`` of :func:`~qraclab.qrac.hamming_budget` plus ``eps * n``."""
    return bound + eps * n


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Outcome of the worst-case decoding game on ``code``: the averaged
    iterates' per-input values, the last one's value at its own prior,
    whether the stopping rule was met, and each iterate's prior, from which
    the averaged measurement and every other figure are derived.  A run
    that did not certify holds its best average, a prefix of the iterates.
    Equality is identity, as it was while the solution held its measurement.
    """

    code: Qrac = field(repr=False)
    eps: float
    per_x: np.ndarray
    avg_value_at_final_prior: float
    converged: bool
    prior_trace: tuple[int, ...] = field(repr=False)
    priors: np.ndarray = field(repr=False)

    @property
    def iterations(self) -> int:
        return len(self.priors)

    @property
    def bound(self) -> float:
        return hamming_budget(self.code.claimed_p, self.code.n)

    @property
    def ceiling(self) -> float:
        return certificate_ceiling(self.bound, self.eps, self.code.n)

    @property
    def worst_x_value(self) -> float:
        return float(self.per_x.max())

    @property
    def gap(self) -> float:
        """The stopping rule's duality gap."""
        return self.worst_x_value - self.avg_value_at_final_prior

    @property
    def certified(self) -> bool:
        return self.worst_x_value <= self.ceiling

    @cached_property
    def measurement(self) -> Povm:
        """The averaged measurement, the mean of the square-root measurements
        at ``priors``, as a dense Povm over the 2^n strings.  Formed on first
        read, one iterate's elements added at a time, and kept."""
        states = self.code.encoder
        mean = np.zeros((len(states), states.dim, states.dim), dtype=complex)
        for prior in self.priors:
            _, full = _pgm_raw(weighted_sums(prior, states), full_table=True)
            mean += gram_dense(full.factors)
            mean[0] += full.leftover @ full.leftover.conj().T
        mean /= len(self.priors)
        return Povm(mean)


def evaluate_worstcase(q: Qrac, measurement: Povm) -> tuple[float, int, np.ndarray]:
    """Worst-case expected Hamming distance of ``measurement`` on ``q``, a
    reference that shares no code with the solver's running mean.

    Outcome k is the n-bit string k, so bit i's outcome-0 operator is the
    0/1-weighted sum of the elements whose string has bit i equal to 0; a
    measurement with more than 2^n outcomes raises LabelMismatchError.
    Returns (worst value, argmax input, per-input values); ties, up to
    rounding, break to the lexicographically first input string.
    """
    elements = measurement.elements
    if len(elements) > 2**q.n:
        raise LabelMismatchError(
            f"measurement has {len(elements)} outcomes, code has {2**q.n} strings"
        )
    f0s = np.tensordot(bit_columns(q.n)[:, : len(elements)] == 0, elements, axes=1)
    per_x = bit_error_table(f0s, q.encoder).sum(axis=0)
    return float(per_x.max()), argmax_first(per_x), per_x


def solve_worstcase(q: Qrac, eps: float = 0.01, max_iters: int = 2000) -> GameSolution:
    """Run multiplicative weights on the adversary's prior until the averaged
    square-root measurement is certified.

    Stops once the worst-case expected distance of the averaged measurement
    is within ``eps * n`` of the 2p(1-p)n bound of
    :func:`~qraclab.qrac.hamming_budget` and the duality gap is at most
    ``GAP_SHARE * n``.  The gap is measured against the value of the
    current best-response measurement at the current prior, which the
    average-case theorem keeps at or below the bound at every iteration.
    If ``max_iters`` passes without certification, the solution returned is
    the iterate whose average had the least worst value, with
    ``converged`` false.  The loop is deterministic: uniform initial
    weights, exact best responses.  Raises only SizeCapError and DomainError.

    The worst case of the average is read from the running mean of the
    iterates' per-input values; each iterate builds its marginals alone,
    and the solution keeps the priors of the iterates it averages.
    """
    n = q.n
    if n > SOLVER_MAX_N:
        raise SizeCapError(f"solver capped at n = {SOLVER_MAX_N}, got {n}")
    if q.m > SOLVER_MAX_M:
        raise SizeCapError(f"solver capped at m = {SOLVER_MAX_M}, got {q.m}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters}")
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and at least 0, got {eps}")
    size = 2**n
    ceiling = certificate_ceiling(hamming_budget(q.claimed_p, n), eps, n)
    lr = math.sqrt(8.0 * math.log(size) / max_iters)

    weights = np.ones(size)
    per_x = np.zeros(size)
    priors: list[np.ndarray] = []
    prior_trace: list[int] = []
    best = None  # (worst, t, per_x, avg) of the best average so far

    for t in range(1, max_iters + 1):
        prior = weights / weights.sum()
        priors.append(prior)
        f0s, _ = _pgm_raw(weighted_sums(prior, q.encoder))
        d_t = bit_error_table(f0s, q.encoder).sum(axis=0)
        prior_trace.append(int(np.argmax(d_t)))

        # a bit's error is affine in its F0, so the average's per-input value
        # is the mean of the iterates' values
        per_x = per_x + (d_t - per_x) / t
        worst = float(per_x.max())
        # value of the current best-response PGM at the current prior; this is
        # the quantity the 2p(1-p)n average-case theorem bounds directly
        avg = float(prior @ d_t)
        converged = worst <= ceiling and worst - avg <= GAP_SHARE * n
        if converged or best is None or worst < best[0]:
            best = (worst, t, per_x, avg)
        if converged:
            break

        weights = weights * np.exp(lr * d_t / n)
        weights /= weights.max()

    _, t, per_x, avg = best
    return GameSolution(
        code=q, eps=eps, per_x=per_x, avg_value_at_final_prior=avg, converged=converged,
        prior_trace=tuple(prior_trace[:t]), priors=np.array(priors[:t]),
    )
