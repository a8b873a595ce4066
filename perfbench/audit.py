"""Output checks for the benchmark's operations.

Every check here is either recomputed apart from the program, from the
code's states and the returned operators or tables, or is a property the
method must have (a bound from the paper, a closed form for the tensor
powers of the standard code).  None compares against a stored copy of
earlier output.  Each function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TOL = 1e-9
TOL_HAMMING = 1e-8


@lru_cache(maxsize=None)
def hamming_matrix(n: int) -> np.ndarray:
    """|x XOR y| for all pairs of n-bit strings, counting set bits."""
    xs = np.arange(2**n)
    xor = xs[:, None] ^ xs[None, :]
    return sum((xor >> b) & 1 for b in range(n))


def bit_matrix(n: int) -> np.ndarray:
    """(n, 2^n) array of bit i (most significant first) of every string."""
    xs = np.arange(2**n)
    return np.stack([(xs >> (n - i)) & 1 for i in range(1, n + 1)])


def outcome_table(elements: np.ndarray, states: np.ndarray) -> np.ndarray:
    """T[x, y] = Tr(E_y rho_x) for Hermitian stacks, as two real products."""
    k = states.shape[0]
    rho = states.reshape(k, -1)
    el = elements.reshape(elements.shape[0], -1)
    return rho.real @ el.real.T + rho.imag @ el.imag.T


def worst_success(states: np.ndarray, f0s: np.ndarray) -> float:
    """Smallest Tr(M^(i)_{x_i} rho_x) over bit positions i and strings x,
    given each bit's outcome-0 decoder element in ``f0s``."""
    n = f0s.shape[0]
    p0 = outcome_table(f0s, states).T  # (n, 2^n)
    bits = bit_matrix(n)
    return float(np.where(bits == 0, p0, 1.0 - p0).min())


def hamming_budget(p: float, n: int) -> float:
    """2p(1-p)n with p raised to one half: a code no better than a coin
    flip is held to the coin-flip budget n/2."""
    p = max(p, 0.5)
    return 2.0 * p * (1.0 - p) * n


def check_measurement(elements: np.ndarray) -> list[str]:
    """Elements PSD and summing to the identity, both within 1e-9."""
    out = []
    low = float(np.linalg.eigvalsh(elements).min())
    if low < -TOL:
        out.append(f"measurement element has eigenvalue {low:.3e}")
    dim = elements.shape[1]
    dev = float(np.abs(elements.sum(axis=0) - np.eye(dim)).max())
    if dev > TOL:
        out.append(f"measurement sums to identity only within {dev:.3e}")
    return out


def check_certificate(
    states: np.ndarray, p: float, n: int, eps: float, elements: np.ndarray, worst_value: float
) -> list[str]:
    """A worst-case certificate: recompute every input's expected Hamming
    distance sum_y Tr(M_y rho_x)|x XOR y| from the returned measurement."""
    out = check_measurement(elements)
    per_x = (outcome_table(elements, states) * hamming_matrix(n)).sum(axis=1)
    worst = float(per_x.max())
    if abs(worst - worst_value) > TOL:
        out.append(f"recomputed worst value {worst:.12f} != reported {worst_value:.12f}")
    limit = 2.0 * p * (1.0 - p) * n + eps * n
    if worst > limit + TOL:
        out.append(f"worst value {worst:.12f} above 2p(1-p)n + eps*n = {limit:.12f}")
    return out


def check_decoding(
    states: np.ndarray,
    p: float,
    n: int,
    m: int,
    full: np.ndarray,
    expected_dh: float,
    per_bit_error: np.ndarray,
    full_success: float,
    ident_lhs: float,
    tensor_power: bool,
) -> list[str]:
    """Uniform-prior square-root measurement with its full outcome table."""
    out = check_measurement(full)
    table = outcome_table(full, states)
    prior = np.full(2**n, 2.0**-n)
    dh = float(prior @ (table * hamming_matrix(n)).sum(axis=1))
    if abs(dh - expected_dh) > TOL_HAMMING:
        out.append(f"E[d_H] from the full table {dh:.12f} != marginal path {expected_dh:.12f}")
    diag = np.diag(table)
    ident = float(diag.sum())
    if ident > 2**m + TOL_HAMMING:
        out.append(f"sum_x Tr(Q_x rho_x) = {ident:.12f} exceeds 2^m = {2**m}")
    if abs(ident - ident_lhs) > TOL_HAMMING:
        out.append(f"identification sum {ident:.12f} != reported {ident_lhs:.12f}")
    success = float(prior @ diag)
    if abs(success - full_success) > TOL:
        out.append(f"full-string success {success:.12f} != reported {full_success:.12f}")
    budget = hamming_budget(p, n)
    if dh > budget + TOL:
        out.append(f"E[d_H] {dh:.12f} above the budget {budget:.12f}")
    if tensor_power:
        if abs(dh - n / 4) > TOL:
            out.append(f"tensor power E[d_H] {dh:.12f} != n/4")
        if np.abs(1.0 - per_bit_error - 0.75).max() > TOL:
            out.append("tensor power per-bit success differs from 3/4")
        if abs(success - 2.0 ** (-n / 2)) > TOL:
            out.append(f"tensor power full-string success {success:.12f} != 2^(-n/2)")
    return out


def codebook_success(tables: np.ndarray, zs: np.ndarray, n_caps: np.ndarray) -> np.ndarray:
    """Exact per-(i, x) success of a codebook, averaged over its shifts.

    ``tables`` stacks each shift's channel E(x)(y), ``zs`` its reference
    distribution and ``n_caps`` its attempt cap.  Each rejection-sampling
    attempt accepts with probability sum_y z(y) E(x)(y) / (r_x z(y)), where
    r_x = max_y E(x)(y)/z(y); on acceptance the output is distributed as
    E(x), after n_cap failures it is uniform, so bit i is right with
    probability one half.
    """
    n = int(round(math.log2(tables.shape[1])))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(zs[:, None, :] > 0, tables / zs[:, None, :], 0.0)
    r = ratio.max(axis=2)
    accept = np.where(zs[:, None, :] > 0, tables, 0.0).sum(axis=2) / r
    fail = (1.0 - accept) ** n_caps[:, None]
    bits = bit_matrix(n)
    same = (bits[:, :, None] == bits[:, None, :]).astype(float)  # (i, x, y)
    right = np.einsum("sxy,ixy->six", tables, same)
    per_shift = (1.0 - fail[:, None, :]) * right + 0.5 * fail[:, None, :]
    return per_shift.mean(axis=0)


def message_budget(m: int, size_s: int, eta: float) -> int:
    """m + ceil(log2 |S|) + ceil(log2 ln(2/eta)) + 2."""
    return m + math.ceil(math.log2(size_s)) + math.ceil(math.log2(math.log(2.0 / eta))) + 2


def check_codebook(
    p: float,
    m: int,
    eta: float,
    tables: np.ndarray,
    exact: np.ndarray,
    validated: np.ndarray,
    min_success: float,
    message_bits: int,
) -> list[str]:
    """A classical codebook against its exact success enumeration."""
    out = []
    capacity = float(np.log2(tables.max(axis=1).sum(axis=1)).max())
    if capacity > m + TOL:
        out.append(f"channel max capacity {capacity:.12f} exceeds m = {m}")
    dev = float(np.abs(exact - validated).max())
    if dev > TOL:
        out.append(f"enumerated success differs from validate_rac by {dev:.3e}")
    floor = 1.0 - 2.0 * p * (1.0 - p) - eta
    if min(min_success, float(exact.min())) < floor - TOL:
        out.append(f"minimum success {exact.min():.12f} below the floor {floor:.12f}")
    budget = message_budget(m, tables.shape[0], eta)
    if message_bits > budget:
        out.append(f"message of {message_bits} bits exceeds the budget {budget}")
    return out


def check_transmission(
    correct: int, expected: float, variance: float, over_budget: int
) -> list[str]:
    """Decoded bits against the exact success table: the count of right
    answers must lie within 5 binomial standard deviations of its mean."""
    out = []
    sigma = math.sqrt(variance)
    if abs(correct - expected) > 5.0 * sigma:
        out.append(f"{correct} right answers, expected {expected:.2f} +- 5 x {sigma:.2f}")
    if over_budget:
        out.append(f"{over_budget} messages exceed their bit budget")
    return out
