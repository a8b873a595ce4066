"""Random access code model: encoders, per-bit decoders, validation.

A code stores one state per n-bit string and one two-outcome measurement
per bit position, together with the success probability it claims to
guarantee on every (string, bit) pair.  The decoders are one stack of
outcome-0 operators, :class:`~qraclab.linalg.BitPovms`, formed directly.

The encoder is a :class:`~qraclab.linalg.GramStates`: the 2^n states as one
stack of Gram factors.  The builders here make pure codes, so they pass
unit state vectors: a Haar draw, the standard code's four vectors, basis
vectors, and the Kronecker products of a tensor power.  Each is checked by
its norm, with no eigendecomposition and no 2^n x d x d array.  A code
given as matrices is factored and cut to their numerical rank, so a pure
one is held as vectors again.  Reading ``q.encoder[x].mat``
forms that one density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import bit_columns
from .errors import SizeCapError, ValidationError
from .linalg import (
    BitPovms,
    GramStates,
    as_states,
    bit_sums,
    check_dim_cap,
    positive_projectors,
    trace_table,
)
from .rng import stream

# Worst-case success of the two-decoder single-qubit code on which most
# worked values in the tests are based.
P_STANDARD = float(np.cos(np.pi / 8) ** 2)
# How far a measured success may fall below the claimed p before a pair
# fails the claim, on construction and in validate_qrac alike.
TOL_CLAIM = 1e-9


def hamming_budget(p: float, n: int) -> float:
    """Expected Hamming error 2p(1-p)n the square-root measurement stays
    within on an n-bit code of worst-case success p.

    A claim below 1/2 is read as p = 1/2: every encoder is a p = 1/2 code
    under the coin-flip decoder I/2, so the budget is never below n/2.
    """
    p = max(p, 0.5)
    return 2.0 * p * (1.0 - p) * n


@dataclass
class Qrac:
    """An (n, m, p) random access code with explicit per-bit decoders."""

    n: int
    m: int
    encoder: GramStates
    decoders: BitPovms
    claimed_p: float | None = None  # None claims the measured worst case

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("n and m must be positive")
        check_dim_cap(2**self.m)
        self.encoder = as_states(self.encoder)
        if len(self.encoder) != 2**self.n:
            raise ValidationError(f"encoder needs {2**self.n} states, got {len(self.encoder)}")
        dim = 2**self.m
        if self.encoder.dim != dim:
            raise ValidationError("encoder state dimension differs from 2^m")
        if not isinstance(self.decoders, BitPovms):
            raise ValidationError(f"decoders must be BitPovms, got {type(self.decoders).__name__}")
        if len(self.decoders) != self.n:
            raise ValidationError(f"one decoder per bit required, got {len(self.decoders)}")
        if self.decoders.f0s.shape[1] != dim:
            raise ValidationError("decoder dimension differs from 2^m")
        worst = success_table(self).min()
        if self.claimed_p is None:
            self.claimed_p = float(worst)
        elif worst < self.claimed_p - TOL_CLAIM:
            raise ValidationError(
                f"claimed success {self.claimed_p} not met: worst pair achieves {worst}"
            )

    @property
    def dim(self) -> int:
        return 2**self.m


def bit_error_table(f0s: np.ndarray, states: GramStates) -> np.ndarray:
    """(n, 2^n) chance that bit i is read wrongly on input x, from the
    per-bit outcome-0 operators ``f0s`` (n, dim, dim) and the encoder
    states."""
    p0 = trace_table(f0s, states.factors)
    return np.where(bit_columns(len(f0s)) == 0, 1.0 - p0, p0)


def success_table(q: Qrac) -> np.ndarray:
    """(n, 2^n) table of Tr(M^{(i)}_{x_i} rho_x) over bit positions and strings."""
    return 1.0 - bit_error_table(q.decoders.f0s, q.encoder)


def validate_qrac(q: Qrac) -> float:
    """Re-measure the code's worst-case success over every (bit, string)
    pair; a code that does no better than a coin flip reads at most 1/2."""
    return float(success_table(q).min())


@dataclass(frozen=True)
class Ensemble:
    """A prior over n-bit strings paired with the states that encode them."""

    prior: np.ndarray
    states: GramStates

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        states = as_states(self.states)
        size = len(states)
        if size < 2 or size & (size - 1):
            raise ValidationError(f"number of states must be a power of two >= 2, got {size}")
        if prior.shape != (size,):
            raise ValidationError("prior length differs from number of states")
        if prior.min() < 0:
            raise ValidationError("prior has negative entries")
        if abs(prior.sum() - 1.0) > 1e-12:
            raise ValidationError(f"prior sums to {prior.sum()}, not 1")
        prior = prior.copy()
        prior.flags.writeable = False
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return int(np.log2(len(self.states)))

    @property
    def dim(self) -> int:
        return self.states.dim

    @classmethod
    def uniform(cls, q: Qrac) -> "Ensemble":
        return cls(np.full(2**q.n, 2.0**-q.n), q.encoder)

    @classmethod
    def from_qrac(cls, q: Qrac, prior) -> "Ensemble":
        return cls(np.asarray(prior, dtype=float), q.encoder)


# ---------------------------------------------------------------------------
# constructors


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    """Each row divided by its np.linalg.norm, as from_state_vector divides.

    A row's squared norm is re.re + im.im over its strided real and imaginary
    views, the ``ddot`` pair that np.linalg.norm runs, here batched over rows
    so the norms keep their bits."""
    re, im = vecs.real, vecs.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return vecs / np.sqrt(sq[:, :, 0])


def build_standard_2to1() -> Qrac:
    """The two-bit, one-qubit code with worst-case success cos^2(pi/8).

    Strings 0b sit at angle +-pi/8 around |0>, strings 1b around |1>; the
    first bit is read in the computational basis, the second in the
    Hadamard basis.
    """
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    vecs = np.array([[c, s], [c, -s], [s, c], [-s, c]], dtype=complex)  # x = 00, 01, 10, 11
    encoder = GramStates.from_vectors(_unit_rows(vecs))
    decoders = BitPovms([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)])  # |0><0| and |+><+|
    return Qrac(2, 1, encoder, decoders, claimed_p=P_STANDARD)


def build_identity_encoding(n: int) -> Qrac:
    """n bits into n qubits via computational basis states; decoders read bits off."""
    if n > 10:
        raise SizeCapError(f"identity encoding capped at n = 10, got {n}")
    dim = 2**n
    encoder = GramStates.from_vectors(np.eye(dim))
    # F0_i is diagonal, with a one on each basis string whose bit i is 0
    decoders = BitPovms(np.eye(dim) * (bit_columns(n) == 0)[:, None, :])
    return Qrac(n, n, encoder, decoders, claimed_p=1.0)


def build_tensor_power(base: Qrac, k: int) -> Qrac:
    """Concatenate k independent blocks of ``base`` into one code.

    Block j covers global bits (j-1)*n+1 .. j*n; its decoder acts on the
    j-th tensor factor and is padded with identities elsewhere.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k * base.n > 16:
        raise SizeCapError(f"tensor power capped at k*n <= 16, got {k * base.n}")
    check_dim_cap(2 ** (k * base.m))
    n, m = k * base.n, k * base.m
    block_dim = base.dim
    # string x = (block 1, ..., block k), block 1 most significant: each
    # factor appends a less significant block and a tensor factor on the
    # right.  The Gram factor of a product state is the Kronecker product of
    # the blocks' factors, formed for all pairs as one broadcast product.
    blocks = base.encoder.factors
    factors = blocks
    for _ in range(k - 1):
        size, dim, rank = factors.shape
        factors = (
            factors[:, None, :, None, :, None] * blocks[None, :, None, :, None, :]
        ).reshape(size * len(blocks), dim * block_dim, rank * blocks.shape[2])
    encoder = GramStates(factors) if k > 1 else base.encoder
    # block j's decoders I_(D^j) (x) F0 (x) I_(D^(k-1-j)), entry by entry the
    # Kronecker products' I[i1, j1] F0[i2, j2] I[i3, j3], as one broadcast product
    f0s = base.decoders.f0s
    f0s = np.concatenate(
        [
            (
                np.eye(block_dim**j)[:, None, None, :, None, None]
                * f0s[:, None, :, None, None, :, None]
                * np.eye(block_dim ** (k - 1 - j))[:, None, None, :]
            ).reshape(len(f0s), 2**m, 2**m)
            for j in range(k)
        ]
    )
    return Qrac(n, m, encoder, BitPovms(f0s), claimed_p=base.claimed_p)


def build_random_qrac(n: int, m: int, seed: int) -> Qrac:
    """Haar-random pure-state encoder with per-bit Helstrom decoders.

    Bit i's decoder projects onto the positive part of rho_0 - rho_1, where
    rho_b is the average of the states whose bit i is b.  The claimed success
    is the measured worst case over (bit, string) pairs, so the returned
    object always validates; codes that land at or below 1/2 are still
    returned, with that worst case as their claim.
    """
    if n > 12 or m > 6:
        raise SizeCapError(f"random codes capped at n <= 12, m <= 6, got ({n}, {m})")
    dim = 2**m
    # one draw in the order of a per-string loop: real parts, then imaginary
    gauss = stream(seed, 0).normal(size=(2**n, 2, dim))
    encoder = GramStates.from_vectors(_unit_rows(gauss[:, 0] + 1j * gauss[:, 1]))
    # (rho_0 - rho_1) / 2 = (Z - T/2) 2^(1-n), Z the bit's zero-sum, T the total
    zeros, total = bit_sums(encoder.factors)
    decoders = BitPovms(positive_projectors((zeros - total / 2) * 2.0 ** (1 - n)))
    return Qrac(n, m, encoder, decoders)

