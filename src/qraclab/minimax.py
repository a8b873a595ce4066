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
read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bits import bit_columns
from .errors import DomainError, LabelMismatchError, NotConvergedError, SizeCapError
from .linalg import GramStates, Povm, argmax_first, gram_dense
from .pgm import _pgm_raw
from .qrac import Qrac, bit_error_table, hamming_budget

SOLVER_MAX_N = 8
SOLVER_MAX_M = 4
# Largest duality gap per bit at which the solver stops.
GAP_SHARE = 0.05


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Outcome of the worst-case decoding game.

    ``priors`` holds the adversary's prior at each of the ``iterations``
    iterates the certificate averages; with ``states`` they determine the
    averaged measurement.  Equality is identity, as it was while the
    solution held its measurement.
    """

    n: int
    eps: float
    bound: float
    per_x: np.ndarray
    worst_x: int
    worst_x_value: float
    avg_value_at_final_prior: float
    gap: float
    iterations: int
    converged: bool
    prior_trace: tuple[int, ...] = field(repr=False)
    priors: np.ndarray = field(repr=False)
    states: GramStates = field(repr=False)

    @property
    def certified(self) -> bool:
        return self.worst_x_value <= self.bound + self.eps * self.n

    @cached_property
    def measurement(self) -> Povm:
        """The averaged measurement, the mean of the square-root measurements
        at ``priors``, as a dense Povm over the 2^n strings.  Formed on first
        read, one iterate's elements added at a time, and kept."""
        mean = np.zeros((2**self.n, self.states.dim, self.states.dim), dtype=complex)
        for prior in self.priors:
            _, full = _pgm_raw(prior, self.states, full_table=True)
            mean += gram_dense(full.factors)
            mean[0] += full.extra
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
    Raises :class:`NotConvergedError` with the best iterate attached if
    ``max_iters`` passes without certification.  The loop is deterministic:
    uniform initial weights, exact best responses.

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
    size = 2**n
    bound = hamming_budget(q.claimed_p, n)
    lr = math.sqrt(8.0 * math.log(size) / max_iters)

    weights = np.ones(size)
    per_x = np.zeros(size)
    priors: list[np.ndarray] = []
    prior_trace: list[int] = []
    best_snapshot: dict | None = None

    def finish(snap: dict, converged: bool) -> GameSolution:
        t = snap["t"]
        return GameSolution(
            n=n,
            eps=eps,
            bound=bound,
            per_x=snap["per_x"],
            worst_x=snap["worst_x"],
            worst_x_value=snap["worst"],
            avg_value_at_final_prior=snap["avg"],
            gap=snap["gap"],
            iterations=t,
            converged=converged,
            prior_trace=tuple(prior_trace[:t]),
            priors=np.array(priors[:t]),
            states=q.encoder,
        )

    for t in range(1, max_iters + 1):
        prior = weights / weights.sum()
        priors.append(prior)
        f0s, _ = _pgm_raw(prior, q.encoder)
        d_t = bit_error_table(f0s, q.encoder).sum(axis=0)
        prior_trace.append(int(np.argmax(d_t)))

        # a bit's error is affine in its F0, so the average's per-input value
        # is the mean of the iterates' values
        per_x = per_x + (d_t - per_x) / t
        worst_x = argmax_first(per_x)
        worst = float(per_x.max())
        # value of the current best-response PGM at the current prior; this is
        # the quantity the 2p(1-p)n average-case theorem bounds directly
        avg_at_prior = float(prior @ d_t)
        gap = worst - avg_at_prior

        snap = {
            "t": t,
            "per_x": per_x,
            "worst_x": worst_x,
            "worst": worst,
            "avg": avg_at_prior,
            "gap": gap,
        }
        if worst <= bound + eps * n and gap <= GAP_SHARE * n:
            return finish(snap, converged=True)
        if best_snapshot is None or worst < best_snapshot["worst"]:
            best_snapshot = snap

        weights = weights * np.exp(lr * d_t / n)
        weights /= weights.max()

    raise NotConvergedError(
        f"no certificate within {max_iters} iterations (best worst-case "
        f"{best_snapshot['worst']:.6f} vs bound {bound:.6f} + {eps * n:.6f}, "
        f"gap {best_snapshot['gap']:.6f})",
        best=finish(best_snapshot, converged=False),
    )
