"""Turning a quantum random access code into a classical one.

Pipeline: symmetrize the code with a shared random shift and XOR mask so
every bit position looks the same, read the whole-string measurement outcome
through the resulting classical channel, compress that channel's output by
rejection sampling, and replace the shared randomness with a small sampled
set of shifts.  The end product is a classical codebook whose message length
is m plus logarithmic overhead and whose per-bit success probability stays
above 1 - 2p(1-p) - eta.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compression import FAIL_INDEX, CompressionScheme, _transcript, build_scheme
from .errors import (
    BadShiftError,
    DerandomizationFailedError,
    DomainError,
    SizeCapError,
    ValidationError,
)
from .info import ClassicalChannel, max_channel_capacity
from .pgm import PgmBundle, build_pgm, marginal_f0s
from .qrac import Ensemble, Qrac, bit_error_table, hamming_budget
from .rng import TAG_BOB, TAG_ENCODE, TAG_NEWMAN, TAG_SHARED, _Key, stream

RAC_MAX_N = 8
NEWMAN_MAX_SIZE = 2**20
NEWMAN_MAX_ATTEMPTS = 16


def shift_bits(x: int, d: int, n: int) -> int:
    """Cyclic left rotation by d places: output bit j is input bit (j+d) mod n
    (positions counted 0-based from the most significant end)."""
    if not 1 <= d <= n:
        raise BadShiftError(f"shift must lie in 1..{n}, got {d}")
    if not 0 <= x < 2**n:
        raise DomainError(f"{x} is not an {n}-bit string")
    return _rotate(x, d, n)


def _rotate(x, d, n: int):
    """:func:`shift_bits` unchecked, for 0 <= d <= n, on ints or int arrays."""
    return ((x << d) | (x >> (n - d))) & ((1 << n) - 1)


def unshift_bits(x: int, d: int, n: int) -> int:
    """Inverse of :func:`shift_bits` for the same d."""
    if not 1 <= d <= n:
        raise BadShiftError(f"shift must lie in 1..{n}, got {d}")
    return shift_bits(x, n - d, n) if d < n else x


@dataclass(frozen=True)
class SharedShift:
    """One sample of the symmetrizing shared randomness: XOR mask r followed
    by a cyclic shift d."""

    r: int
    d: int
    n: int

    def __post_init__(self):
        _shift_pairs([[self.r, self.d]], self.n)

    def apply(self, z: int) -> int:
        """Encoder direction: shift_d(z XOR r)."""
        return shift_bits(z ^ self.r, self.d, self.n)

    def invert(self, y: int) -> int:
        """Decoder direction: unshift_d(y) XOR r."""
        return unshift_bits(y, self.d, self.n) ^ self.r


def _shift_pairs(pairs, n: int) -> np.ndarray:
    """A set of shifts as one frozen (|S|, 2) int array of (r, d) rows, each
    checked for integer entries, 1 <= d <= n and 0 <= r < 2^n;
    :class:`SharedShift` checks its own (r, d) here too."""
    rows = np.asarray(pairs)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValidationError(f"expected (r, d) rows, got shape {rows.shape}")
    if rows.dtype.kind not in "biu":  # floats, or ints beyond int64 as objects
        for entry in np.array(pairs, dtype=object).flat:  # entries as given
            if not (isinstance(entry, (int, np.integer)) and -(2**63) <= entry < 2**63):
                raise DomainError(f"an (r, d) entry must be a 64-bit integer, got {entry!r}")
    pairs = rows.astype(np.int64)
    bad_d = np.flatnonzero((pairs[:, 1] < 1) | (pairs[:, 1] > n))
    if bad_d.size:
        raise BadShiftError(f"shift must lie in 1..{n}, got {pairs[bad_d[0], 1]}")
    bad_r = np.flatnonzero((pairs[:, 0] < 0) | (pairs[:, 0] >= 2**n))
    if bad_r.size:
        raise DomainError(f"mask {pairs[bad_r[0], 0]} is not an {n}-bit string")
    pairs.flags.writeable = False
    return pairs


def perm_table(s_set: np.ndarray, n: int) -> np.ndarray:
    """Every shift's permutation z -> shift_d(z XOR r) over all 2^n strings,
    one row per (r, d) row of ``s_set``: shape (|S|, 2^n)."""
    return _rotate(np.arange(2**n) ^ s_set[:, :1], s_set[:, 1:], n)


def perm_array(s: SharedShift) -> np.ndarray:
    """The permutation z -> shift_d(z XOR r) over all 2^n strings."""
    return perm_table(np.array([[s.r, s.d]]), s.n)[0]


def full_outcome_table(q: Qrac, pgm_uniform: PgmBundle) -> np.ndarray:
    """T[x, y] = probability the whole-string measurement reports y on the
    state encoding x."""
    if pgm_uniform.full is None:
        raise ValidationError("need a full-table measurement bundle")
    table = pgm_uniform.full.table(q.encoder)
    if table.min() < -1e-10:
        raise ValidationError(f"outcome probability {table.min()} below zero")
    return np.clip(table, 0.0, None)


def per_bit_error_table(q: Qrac, pgm_uniform: PgmBundle) -> np.ndarray:
    """err[i-1, x] = probability bit i is decoded wrongly on input x under
    the uniform-prior square-root measurement marginals."""
    return bit_error_table(marginal_f0s(pgm_uniform, q.n), q.encoder)


def effective_channel(
    q: Qrac, s: SharedShift, pgm_uniform: PgmBundle | None = None
) -> ClassicalChannel:
    """The classical channel x -> y realized by the symmetrized roundtrip
    under shared shift s.

    Every shift sees the same outcome table with its rows and columns
    relabelled, so :func:`build_rac` builds and checks one channel, the
    identity shift's, and indexes it through each shift's permutation.
    """
    if q.n > RAC_MAX_N:
        raise SizeCapError(f"channel table capped at n = {RAC_MAX_N}, got {q.n}")
    if pgm_uniform is None:
        pgm_uniform = build_pgm(Ensemble.uniform(q), full_table=True)
    perm = perm_array(s)
    channel = ClassicalChannel(full_outcome_table(q, pgm_uniform)[perm][:, perm])
    # relabelling permutes the column maxima, so one check covers every shift
    c_max = max_channel_capacity(channel).value
    if c_max > q.m + 1e-9:
        raise ValidationError(
            f"channel max capacity {c_max:.12f} exceeds the message size {q.m}"
        )
    return channel


def sample_newman_set(
    n: int, eta: float, seed: int, c_newman: float = 8.0, attempt: int = 0
) -> np.ndarray:
    """|S| = ceil(c_newman * n / eta^2) iid uniform (r, d) pairs, sampled with
    replacement, as the rows of a frozen (|S|, 2) int array."""
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    if not c_newman > 0.0:
        raise DomainError(f"c_newman must be positive, got {c_newman}")
    eta_sq = eta**2  # 0.0 once eta < 1e-162; c_newman * n / eta_sq may be inf
    if not (eta_sq > 0.0 and c_newman * n / eta_sq <= NEWMAN_MAX_SIZE):
        raise SizeCapError(f"Newman set of {c_newman} * {n} / {eta}^2 shifts over cap {NEWMAN_MAX_SIZE}")
    size = math.ceil(c_newman * n / eta_sq)
    rng = stream(seed, TAG_NEWMAN, attempt)
    rs = rng.integers(0, 2**n, size=size)
    ds = rng.integers(1, n + 1, size=size)
    return _shift_pairs(np.column_stack([rs, ds]), n)


@dataclass(frozen=True)
class NoBadEventReport:
    ok: bool
    worst_margin: float
    threshold: float
    uniform_error: float
    offending: tuple[tuple[int, int], ...]


def shift_average(table: np.ndarray, s_set: np.ndarray) -> np.ndarray:
    """Mean over the shifts of ``s_set`` of a per-(i, x) ``table`` seen
    through each (r, d) row of the set: out[i, x] = mean_s table[(i - d_s) mod n,
    perm_s[x]], shape (n, 2^n).

    The whole set enters as one count array C[d, x, x'] = #{s : d_s = d,
    perm_s[x] = x'}, so the mean is one contraction with the n bit-rotated
    copies of the table.  Shift (r, d) sends x to x' exactly when
    r = x XOR unrotate_d(x'), so C is read off the (n, 2^n) counts of the
    (d, r) pairs, and its size does not grow with |S|.
    """
    n, size = table.shape
    by_pair = np.bincount((s_set[:, 1] - 1) * size + s_set[:, 0], minlength=n * size)
    d = np.arange(1, n + 1)[:, None]
    xs = np.arange(size)
    unrotated = _rotate(xs, n - d, n)  # [d-1, x'] = unrotate_d(x')
    masks = xs[:, None] ^ unrotated[:, None, :]  # [d-1, x, x'] = the r sending x to x'
    counts = by_pair.reshape(n, size)[np.arange(n)[:, None, None], masks]
    rotated = table[(np.arange(n) - d) % n]  # [d-1, i] = row i - d
    return np.einsum("dxy,diy->ix", counts, rotated) / len(s_set)


def verify_no_bad_event(
    q: Qrac, s_set, eta: float, *, bit_errors: np.ndarray | None = None
) -> NoBadEventReport:
    """Exhaustively check that no (x, i) pair has its S-averaged error exceed
    the shared-randomness average by more than eta/2.  ``s_set`` holds the
    shifts as (r, d) rows.

    ``bit_errors`` is ``q``'s :func:`per_bit_error_table`, when the caller
    already holds it.
    """
    n = q.n
    if n > RAC_MAX_N:
        raise SizeCapError(f"bad-event audit capped at n = {RAC_MAX_N}, got {n}")
    if bit_errors is None:
        bit_errors = per_bit_error_table(q, build_pgm(Ensemble.uniform(q)))
    uniform_error = float(bit_errors.mean())
    margins = shift_average(bit_errors, _shift_pairs(s_set, n)) - uniform_error
    threshold = eta / 2.0
    bad = np.argwhere(margins > threshold + 1e-12)
    offending = tuple((int(x), int(i) + 1) for i, x in bad)
    return NoBadEventReport(
        ok=len(offending) == 0,
        worst_margin=float(margins.max()),
        threshold=threshold,
        uniform_error=uniform_error,
        offending=offending,
    )


def message_bits_budget(m: int, size_s: int, eta: float) -> int:
    """Longest codebook message the conversion allows:
    m + ceil(log2 |S|) + ceil(log2 ln(2/eta)) + 2 bits."""
    return m + math.ceil(math.log2(size_s)) + math.ceil(math.log2(math.log(2.0 / eta))) + 2


class _ShiftSchemes(Sequence):
    """Read-only view of each shift's compression scheme: the codebook's
    base scheme relabelled by the shift's permutation, built from its (r, d)
    row on first access and cached.

    Nothing in the package reads it; it serves the benchmark's per-shift
    audit and goes once that reads the shift-invariant fields.
    """

    def __init__(self, base: CompressionScheme, s_set: np.ndarray, n: int):
        self._base = base
        self._s_set = s_set
        self._n = n
        self._built: list[CompressionScheme | None] = [None] * len(s_set)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k: int) -> CompressionScheme:
        scheme = self._built[k]
        if scheme is None:
            base, perm = self._base, perm_table(self._s_set[[k]], self._n)[0]
            scheme = self._built[k] = dataclasses.replace(
                base,
                channel=ClassicalChannel(base.channel.table[perm][:, perm]),
                z=base.z[perm],
                a=base.a[perm],
                ratio=base.ratio[perm],
            )
        return scheme


@dataclass(frozen=True)
class RacCodebook:
    """Classical random access code distilled from a quantum one.

    ``scheme`` compresses the identity shift's channel; shift (r, d) sees
    that channel relabelled by z -> shift_d(z XOR r), so c_max, the attempt
    cap and the index width are the same for every shift.
    ``bit_errors`` is the code's per-bit error table that the Newman audit
    checked, shape (n, 2^n).  ``s_set`` holds the shifts as the (r, d) rows
    of one frozen (|S|, 2) int array.
    """

    n: int
    m: int
    eta: float
    claimed_p: float
    s_set: np.ndarray
    scheme: CompressionScheme
    bit_errors: np.ndarray
    index_bits_s: int
    total_message_bits: int
    success_floor: float
    seed: int
    c_newman: float
    newman_attempts: int
    worst_margin: float

    def __post_init__(self):
        object.__setattr__(self, "s_set", _shift_pairs(self.s_set, self.n))
        if self.scheme.in_size != 2**self.n or self.bit_errors.shape != (self.n, 2**self.n):
            raise ValidationError(f"scheme or error table does not cover {self.n}-bit strings")
        parts = self.index_bits_s + self.scheme.index_bits
        if self.total_message_bits != parts:
            raise ValidationError(
                f"message length {self.total_message_bits} does not match its parts {parts}"
            )
        budget = message_bits_budget(self.m, len(self.s_set), self.eta)
        if self.total_message_bits > budget:
            raise ValidationError(
                f"message length {self.total_message_bits} exceeds the budget {budget}"
            )

    @property
    def size_s(self) -> int:
        return len(self.s_set)

    @cached_property
    def schemes(self) -> _ShiftSchemes:
        return _ShiftSchemes(self.scheme, self.s_set, self.n)


def build_rac(
    q: Qrac,
    eta: float,
    seed: int,
    c_newman: float = 8.0,
) -> RacCodebook:
    """Sample a shift set free of bad events (resampling on failure), then
    attach one eta/2-error compression scheme, that of the identity shift's
    channel, which every shift indexes through its permutation.
    """
    n = q.n
    if n > RAC_MAX_N:
        raise SizeCapError(f"codebook construction capped at n = {RAC_MAX_N}, got {n}")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    pgm = build_pgm(Ensemble.uniform(q), full_table=True)
    err = per_bit_error_table(q, pgm)

    best_margin = math.inf
    report = None
    s_set = None
    for attempt in range(NEWMAN_MAX_ATTEMPTS):
        candidate = sample_newman_set(n, eta, seed, c_newman, attempt=attempt)
        report = verify_no_bad_event(q, candidate, eta, bit_errors=err)
        best_margin = min(best_margin, report.worst_margin)
        if report.ok:
            s_set = candidate
            attempts_used = attempt + 1
            break
    if s_set is None:
        raise DerandomizationFailedError(
            f"no shift set within {NEWMAN_MAX_ATTEMPTS} attempts cleared the "
            f"{eta / 2.0:.6f} margin (best worst-margin {best_margin:.6f})",
            worst_margin=best_margin,
        )

    # r = 0, d = n is the identity relabelling
    scheme = build_scheme(effective_channel(q, SharedShift(0, n, n), pgm), eta / 2.0)
    index_bits_s = math.ceil(math.log2(len(s_set)))
    floor = 1.0 - hamming_budget(q.claimed_p, 1) - eta
    return RacCodebook(
        n=n,
        m=q.m,
        eta=eta,
        claimed_p=q.claimed_p,
        s_set=s_set,
        scheme=scheme,
        bit_errors=err,
        index_bits_s=index_bits_s,
        total_message_bits=index_bits_s + scheme.index_bits,
        success_floor=floor,
        seed=seed,
        c_newman=c_newman,
        newman_attempts=attempts_used,
        worst_margin=report.worst_margin,
    )


@dataclass(frozen=True)
class RacValidation:
    """Exact per-(x, i) success audit of a codebook."""

    min_success: float
    ok: bool
    floor: float
    table: np.ndarray
    argmin: tuple[int, int]


def validate_rac(codebook: RacCodebook, q: Qrac) -> RacValidation:
    """Success probability of every (input, queried bit) pair, computed in
    closed form: acceptance reproduces the channel row exactly, failure falls
    back to a fair coin per bit.

    Reads the per-bit error table the codebook was audited with, after
    checking that ``q`` is the code it was built from.
    """
    n = q.n
    if n > RAC_MAX_N:
        raise SizeCapError(f"validation capped at n = {RAC_MAX_N}, got {n}")
    if (n, q.m, q.claimed_p) != (codebook.n, codebook.m, codebook.claimed_p):
        raise ValidationError(
            f"codebook of an (n, m, p) = ({codebook.n}, {codebook.m}, {codebook.claimed_p}) "
            f"code, given ({n}, {q.m}, {q.claimed_p})"
        )
    sc = codebook.scheme
    # a shift relabels the failure chance with its input, like the error table
    fail = (1.0 - 1.0 / sc.ratio) ** sc.n_cap
    table = shift_average((1.0 - fail) * (1.0 - codebook.bit_errors) + fail * 0.5, codebook.s_set)
    flat = int(np.argmin(table))
    i, x = divmod(flat, table.shape[1])
    min_success = float(table[i, x])
    return RacValidation(
        min_success=min_success,
        ok=min_success >= codebook.success_floor - 1e-9,
        floor=codebook.success_floor,
        table=table,
        argmin=(x, i + 1),
    )


@dataclass(frozen=True)
class RacMessage:
    """What actually crosses the channel: which shift, which sample index."""

    s_index: int
    sent_index: int
    total_bits: int


def rac_encode(
    codebook: RacCodebook, x: int, shared_seed: int, replicate: int = 0
) -> RacMessage:
    """Pick a shift (r, d) from Alice's stream, run the base scheme on
    shift_d(x XOR r) with her coins from the same stream, and emit (shift
    index, sample index), the same index as on the shift's own channel."""
    n = codebook.n
    if not 0 <= x < 2**n:
        raise DomainError(f"{x} is not an {n}-bit string")
    key = _Key(shared_seed, TAG_ENCODE, replicate)
    alice = key.stream(TAG_ENCODE, replicate)
    s_index = int(alice.integers(codebook.size_s))
    r, d = codebook.s_set[s_index].tolist()
    shared = key.stream(TAG_SHARED, s_index, replicate)
    sent, _ = _transcript(codebook.scheme, _rotate(x ^ r, d, n), shared, alice)
    return RacMessage(s_index=s_index, sent_index=sent, total_bits=codebook.total_message_bits)


def rac_decode(
    codebook: RacCodebook,
    message: RacMessage,
    i: int,
    shared_seed: int,
    replicate: int = 0,
) -> int:
    """Recover bit i of the decoded string from the message alone plus the
    shared randomness; the input x never enters."""
    n = codebook.n
    if not 1 <= i <= n:
        raise DomainError(f"bit index must lie in 1..{n}, got {i}")
    s_index, sent, n_cap = message.s_index, message.sent_index, codebook.scheme.n_cap
    if not 0 <= s_index < codebook.size_s:
        raise DomainError(f"shift index must lie in 0..{codebook.size_s - 1}, got {s_index}")
    if not FAIL_INDEX <= sent <= n_cap:
        raise DomainError(f"sample index must lie in {FAIL_INDEX}..{n_cap}, got {sent}")
    key = _Key(shared_seed, s_index, replicate)
    if sent == FAIL_INDEX:
        y = int(key.stream(TAG_BOB, s_index, replicate).integers(2**n))
    else:
        # the accepted base-label sample is the sent_index-th shared draw; a
        # shorter draw is a prefix of the sender's, so only that many are replayed
        u = key.stream(TAG_SHARED, s_index, replicate).random(sent)[-1]
        r, d = codebook.s_set[s_index].tolist()
        y = _rotate(int(codebook.scheme.bins.searchsorted(u, "right")), n - d, n) ^ r
    return (y >> (n - i)) & 1
