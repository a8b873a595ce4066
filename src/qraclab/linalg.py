"""Hermitian linear algebra kernels and the basic quantum containers.

Everything downstream (measurements, decoders, solvers) is built on the
handful of operations here, so the tolerances and the support cutoff are
fixed in this module, as constants that no caller overrides.

States and the full square-root measurement are held as Gram factors:
a PSD matrix M is kept as A with M = A A^dag.  ``GramStates`` stacks the
factors of k states as one frozen (k, d, r) array.  A pure state is its
unit vector (r = 1), checked by its norm alone; matrix input is factored
by one batched ``eigh``, which is also its PSD check, and cut to the
stack's numerical rank, so a pure state read as a matrix is a vector
again; the matrices themselves are not kept.  ``GramPovm`` holds a
measurement as its factors B_k and one (d, l) factor C on its first
element, validated by their identity sum.  Three kernels act on factor
stacks without forming d x d members: ``trace_table`` (Tr(F rho_x) for a few
dense F: one batched product per chunk of operators whose products hold
about ``_GRAM_CHUNK`` entries, or one 2-D product per operator where a
single product fills the chunk, each entry reduced as a real dot product
of float64 views), ``bit_sums`` (every bit's sum over the strings whose
bit is 0, and the total, of a stack indexed by n-bit strings, from two
products whatever n) and ``gram_dense`` (the members themselves, for a
dense measurement).  A ``GramPovm`` reads its outcome table and its
diagonal against states as products of the two factor stacks, and of the
states with C for the first element.

A dense ``Povm`` is labelled 0..k-1: its one field, ``elements``, is the
validated (k, d, d) array, checked by one batched Hermiticity reduction
and one batched Cholesky test at ``TOL_PSD`` (``_check_psd``).  Per-bit
measurements (decoders, PGM marginals) are ``BitPovms``, one (n, d, d)
stack of outcome-0 operators F0_i, with outcome 1 read as I - F0_i and
checked by a second Cholesky test on I - F0.  A bad member of any stack
raises the error, with the message and tolerance, that its own
per-matrix constructor would, and an empty stack raises ValidationError
naming its shape.  No spectrum is computed to validate a measurement.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bits import bit_columns
from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    SizeCapError,
    ValidationError,
)

# Default tolerances.  Absolute, chosen for dimensions up to DIM_CAP.
TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_POVM = 1e-9
TOL_PSD = 1e-10
SUPPORT_CUTOFF = 1e-12  # relative to the largest eigenvalue
TOL_TIE = 1e-12
DIM_CAP = 2**10
_HERM_BLOCK = 2**16  # entries per block of the Hermiticity check
_GRAM_CHUNK = 2**13  # entries per chunk of bit_sums and trace_table


def _as_array(a) -> np.ndarray:
    if isinstance(a, DensityMatrix):
        return a.mat
    return np.asarray(a, dtype=complex)


def argmax_first(values) -> int:
    """Lowest index whose value is within ``TOL_TIE`` of the maximum: argmax
    with ties up to rounding broken toward the first index, so the pick does
    not hang on the order in which the values were summed."""
    values = np.asarray(values)
    return int(np.argmax(values >= values.max() - TOL_TIE))


def check_dim_cap(dim: int) -> None:
    if dim > DIM_CAP:
        raise SizeCapError(f"dimension {dim} exceeds cap {DIM_CAP}")


def _hermitian_deviation(a: np.ndarray) -> float:
    """Largest entry of |A - A^dag| over a complex square matrix or a stack
    of them, NaN if any entry is NaN or infinite, 0 for a stack of no
    members.  Taken over blocks of whole members, each about ``_HERM_BLOCK``
    entries, so the temporaries are one block's size, not the stack's.  A
    block is tested for finiteness first, by the largest and smallest of its
    real and imaginary parts, so inf - inf is never formed; the test reads a
    float64 view of the block, which for a contiguous stack allocates
    nothing."""
    stack = a.reshape(-1, *a.shape[-2:])
    step = max(1, _HERM_BLOCK // (a.shape[-1] ** 2 or 1))
    devs = []
    for k in range(0, len(stack), step):
        block = stack[k : k + step]
        parts = np.ascontiguousarray(block).reshape(-1).view(float)
        if not (math.isfinite(parts.max()) and math.isfinite(parts.min())):
            return float("nan")
        devs.append(np.abs(block - block.conj().swapaxes(1, 2)).max())
    return float(max(devs, default=0.0))


def is_hermitian(a) -> bool:
    """Whether a matrix, or every member of a (k, d, d) stack, equals its
    conjugate transpose within ``TOL_HERM`` in every entry."""
    a = _as_array(a)
    return a.shape[-2] == a.shape[-1] and _hermitian_deviation(a) <= TOL_HERM


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a, or
    of each member of a (k, d, d) stack, from one batched ``eigh``.

    Raises NotHermitianError if ``a`` deviates from Hermitian symmetry by
    more than ``TOL_HERM`` in any entry.
    """
    a = _as_array(a)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    deviation = _hermitian_deviation(a)
    if not deviation <= TOL_HERM:  # NaN fails too
        raise NotHermitianError(f"matrix deviates from Hermitian symmetry by {deviation:.3e}")
    vals, vecs = np.linalg.eigh(a)
    return vals[..., ::-1], vecs[..., ::-1]


def positive_projectors(a) -> np.ndarray:
    """Projector onto the positive eigenspace of each member of a (k, d, d) stack,
    a product over its positive eigenvectors alone (zero padding moves last bits)."""
    kept = [v[:, w > 0] for w, v in zip(*eig_hermitian(a))]
    return np.stack([v @ v.conj().T for v in kept])


def _sqrt_pinv_with_support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Inverse square root on the support of ``a``, the eigenvectors off the
    support as the columns of a (d, l) matrix, so that the projector off the
    support is their Gram product, and the condition number of ``a`` on its
    support (1 if it has none).  ``a`` must be exactly Hermitian, as a
    hermitized matrix is: the ``eigh`` runs unchecked.  Its eigenvalues come
    in ascending order, so the support is the slice from the first one at or
    above ``SUPPORT_CUTOFF`` times the largest."""
    vals, vecs = np.linalg.eigh(a)
    start = int(np.searchsorted(vals, SUPPORT_CUTOFF * vals[-1])) if vals[-1] > 0.0 else len(vals)
    kept_vecs = vecs[:, start:]
    inv_sqrt = (kept_vecs * (vals[start:] ** -0.5)) @ kept_vecs.conj().T
    condition = float(vals[-1] / vals[start]) if start < len(vals) else 1.0
    return inv_sqrt, vecs[:, :start], condition


def trace_table(ops: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Real (k, N) table Tr(ops[k] A_x A_x^dag) for k square matrices and N
    Gram factors A_x, shape (N, d, r): each entry is the sum of Re(a^dag F a)
    over the r columns a of A_x, one (N r, d)(d, d) product per operator.
    Re(a^dag F a) is the real dot product of the float64 views of the rows
    a^T and (F a)^T, so the imaginary half is never summed.

    The products are batched over chunks of operators whose products hold
    about ``_GRAM_CHUNK`` entries.  Where one operator's product fills a
    chunk alone, it is a 2-D product, which runs faster than a batch of one;
    both forms give the same bits."""
    size, dim, rank = factors.shape
    # rows a^T, made complex and contiguous once, so their float64 view pairs
    # each real part with its imaginary part
    rows = np.ascontiguousarray(factors.transpose(0, 2, 1), dtype=complex).reshape(size * rank, dim)
    flat = rows.view(float)[..., None]
    step = _GRAM_CHUNK // rows.size
    if step > 1:
        prods = (rows @ ops[k : k + step].transpose(0, 2, 1) for k in range(0, len(ops), step))
        table = np.concatenate([(p.view(float)[..., None, :] @ flat)[..., 0, 0] for p in prods])
    else:
        # each product is reduced before the next is formed: a generator of
        # products, which keeps one alive while the next is formed, ran 20%
        # slower at 1024 rows, d = 32
        table = np.stack([((rows @ op.T).view(float)[..., None, :] @ flat)[..., 0, 0] for op in ops])
    return table.reshape(len(ops), size, rank).sum(axis=2)


@lru_cache(maxsize=None)
def _zero_weights(bits: int) -> np.ndarray:
    """(bits + 1, 2^bits) 0/1 rows over the strings of ``bits`` bits: row 0 is
    all ones, and row i marks the strings whose bit i is 0; built once per
    size and shared read-only."""
    weights = np.vstack([np.ones(1 << bits), bit_columns(bits) == 0])
    weights.flags.writeable = False
    return weights


def _add_block_sums(blocks: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """Add the sums sum_b weights[j, b] G_b into the real view ``out`` (j, 2 d^2)
    of j complex d x d sums, where G_b = sum_a a a^dag over the rows a^T of
    block b of a (B, K, r, d) view: one (d, K r)(K r, d) product per block,
    taken over chunks of blocks whose G_b are added in before the next chunk
    is formed.

    A chunk takes at least j blocks, so that adding it in costs no more than
    forming it, and otherwise about ``_GRAM_CHUNK`` entries of copies and
    G_b.  It copies its rows once, conjugated, or for r > 1 twice (made
    contiguous, then conjugated), and then takes at most half the blocks."""
    count, length, rank, dim = blocks.shape
    copies = 1 if rank == 1 else 2
    per_block = copies * length * rank * dim + dim * dim
    step = max(1, min(count // copies, max(len(weights), _GRAM_CHUNK // per_block)))
    grams = np.empty((min(step, count), dim, dim), dtype=complex)
    part = np.empty_like(out)
    for k in range(0, count, step):
        rows = blocks[k : k + step].reshape(-1, length * rank, dim)
        chunk = np.matmul(rows.transpose(0, 2, 1), rows.conj(), out=grams[: len(rows)])
        flat = chunk.reshape(len(rows), -1).view(float)
        out += np.matmul(weights[:, k : k + step], flat, out=part)


def bit_sums(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every bit's zero-sum and the total of a stack of 2^n Gram factors
    indexed by n-bit strings: the (n, d, d) sums sum_{x: x_i = 0} A_x A_x^dag,
    bit 1 most significant, and the (d, d) sum over all x.

    Each string splits into its high floor(n/2) bits and its low ceil(n/2)
    bits.  The Gram sums of the 2^floor(n/2) high blocks and of the
    2^ceil(n/2) low blocks are two batched products of the stack, and a bit's
    zero-sum is the 0/1-weighted sum of the blocks whose part of the string
    has that bit 0: two stack products in all, where a product per bit
    makes n."""
    size, dim, rank = factors.shape
    if not size or size & (size - 1):
        raise ValidationError(f"expected 2^n factors, got {size}")
    n = size.bit_length() - 1
    high = n // 2
    # x = (high part) * 2^(n - high) + (low part); rows a^T of every A_x
    rows = factors.transpose(0, 2, 1).reshape(1 << high, 1 << (n - high), rank, dim)
    sums = np.zeros((n + 1, 2 * dim * dim))  # real view: the total, then bit 1..n's zero-sums
    _add_block_sums(rows, _zero_weights(high), sums[: high + 1])
    _add_block_sums(rows.transpose(1, 0, 2, 3), _zero_weights(n - high)[1:], sums[high + 1 :])
    sums = sums.view(complex).reshape(n + 1, dim, dim)
    return sums[1:], sums[0]


def gram_dense(factors: np.ndarray) -> np.ndarray:
    """The (k, d, d) matrices A_x A_x^dag of a factor stack."""
    if factors.shape[2] == 1:  # rank one: the outer product, rounded as np.outer rounds it
        vecs = factors[:, :, 0]
        return vecs[:, :, None] * vecs.conj()[:, None, :]
    return factors @ factors.conj().swapaxes(1, 2)


def _validated_states(mats) -> tuple[np.ndarray, np.ndarray]:
    """Check a (k, d, d) stack of density matrices, each Hermitian, unit
    trace and PSD within tolerance, and return it as one frozen complex
    array together with its Gram factors V sqrt(w), from one batched ``eigh``
    that is also the PSD check, cut to the stack's numerical rank.  A bad
    member raises the error its own constructor would."""
    try:
        stack = np.array(mats, dtype=complex)
    except ValueError as err:  # members of different shapes, or not numbers
        raise ValidationError(f"density matrices do not form one stack: {err}") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(f"expected a square matrix, got shape {stack.shape[1:]}")
    if not stack.size:
        raise ValidationError(f"density matrix of shape {stack.shape[1:]} is empty")
    check_dim_cap(stack.shape[1])
    if not is_hermitian(stack):
        raise NotHermitianError("density matrix is not Hermitian within tolerance")
    traces = np.trace(stack, axis1=1, axis2=2).real
    off = np.flatnonzero(~(np.abs(traces - 1.0) <= TOL_TRACE))  # NaN fails too
    if off.size:
        raise ValidationError(f"trace {traces[off[0]]} is not 1 within {TOL_TRACE}")
    w, v = np.linalg.eigh(stack)
    factors = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]  # rounding negatives clipped
    if w.min() < -TOL_PSD:
        raise ValidationError("density matrix has a negative eigenvalue beyond tolerance")
    return _frozen(stack), _rank_truncated(w, factors)


def _rank_truncated(w: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The factor columns of a stack of states that hold its numerical rank.

    A column is kept where its eigenvalue exceeds ``SUPPORT_CUTOFF`` times
    its member's largest, and r is the largest count kept in the stack:
    the last r columns of each member (``eigh`` sorts ascending), with the
    columns a lower-rank member does not keep set to zero."""
    keep = w > SUPPORT_CUTOFF * w[..., -1:]
    rank = int(keep.sum(axis=-1).max())
    return (factors * keep[..., None, :])[..., -rank:]


def _check_psd(stack: np.ndarray) -> None:
    """Raise ValidationError unless no member of a Hermitian (k, d, d) stack
    has an eigenvalue below -TOL_PSD: one batched Cholesky factorization of
    the stack with TOL_PSD added to its diagonal, which succeeds exactly
    where every shifted member is positive definite.  Like ``eigvalsh``, it
    reads each member's lower triangle.  Its backward error, about
    d eps ||A|| (Higham, ch. 10), is some 1e-14 at d = 32 for a member of
    norm 1, four orders below TOL_PSD."""
    try:
        np.linalg.cholesky(stack + TOL_PSD * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValidationError("measurement element has a negative eigenvalue") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, with no ``__post_init__`` run: for values their builder has
    already checked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: Hermitian, PSD, unit trace."""

    mat: np.ndarray

    def __post_init__(self):
        stack, _ = _validated_states(_as_array(self.mat)[None])
        object.__setattr__(self, "mat", stack[0])


@dataclass(frozen=True, eq=False)
class GramStates(Sequence):
    """k density matrices rho_x = A_x A_x^dag held as one frozen (k, d, r)
    array of Gram factors.

    Such a member is PSD by construction, so the check is its trace, the
    squared Frobenius norm of A_x.  Pure states are unit vectors, r = 1
    (:meth:`from_vectors`).  Matrix input goes through :func:`as_states`,
    whose ``eigh`` gives factors with r the stack's numerical rank; the
    matrices themselves are not kept.  Indexing forms one
    :class:`DensityMatrix` from its factor on demand.
    """

    factors: np.ndarray

    def __post_init__(self):
        factors = np.array(self.factors, dtype=complex)
        if factors.ndim != 3:
            raise ValidationError(f"expected a (k, d, r) factor stack, got shape {factors.shape}")
        check_dim_cap(factors.shape[1])
        traces = (factors.real**2 + factors.imag**2).sum(axis=(1, 2))
        off = np.flatnonzero(~(np.abs(traces - 1.0) <= TOL_TRACE))  # NaN fails too
        if off.size:
            raise ValidationError(f"trace {traces[off[0]]} is not 1 within {TOL_TRACE}")
        object.__setattr__(self, "factors", _frozen(factors))

    @classmethod
    def from_vectors(cls, vecs) -> "GramStates":
        """Pure states from a (k, d) array of unit vectors."""
        vecs = np.asarray(vecs, dtype=complex)
        if vecs.ndim != 2:
            raise ValidationError(f"expected a (k, d) array of state vectors, got shape {vecs.shape}")
        return cls(vecs[:, :, None])

    @property
    def dim(self) -> int:
        return self.factors.shape[1]

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, x: int) -> DensityMatrix:
        return _unchecked(DensityMatrix, mat=_frozen(gram_dense(self.factors[x][None])[0]))


def as_states(states) -> GramStates:
    """``states`` as GramStates: returned as is, or a sequence of density
    matrices validated once as a stack and factored by one batched ``eigh``."""
    if isinstance(states, GramStates):
        return states
    mats = [_as_array(st) for st in states]
    if not mats:
        raise ValidationError("no states given")
    _, factors = _validated_states(mats)
    return GramStates(factors)


def _check_identity_sum(total: np.ndarray) -> None:
    deviation = np.abs(total - np.eye(len(total))).max()
    if not deviation <= TOL_POVM:  # NaN fails too
        raise ValidationError(f"elements sum to identity only within {deviation:.3e} > {TOL_POVM}")


def _hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2, which is exactly Hermitian: the sum is formed once, in
    a new array, and halved in place."""
    out = a + a.conj().swapaxes(-2, -1)
    out *= 0.5
    return out


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure with outcomes labelled 0..k-1.

    Elements must each be Hermitian and PSD within tolerance and must sum
    to the identity entrywise within ``TOL_POVM``.  They are validated, PSD
    by one batched Cholesky test at ``TOL_PSD`` on their lower triangles,
    and kept as one frozen (k, d, d) array, ``elements``.
    """

    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        members = [_as_array(e) for e in self.elements]
        if not members:
            raise ValidationError("measurement needs at least one element")
        if not members[0].size:
            raise ValidationError(f"measurement element is empty, shape {members[0].shape}")
        dim = members[0].shape[0]
        check_dim_cap(dim)
        if any(e.shape != (dim, dim) for e in members):
            raise DimensionMismatchError("measurement elements differ in dimension")
        stack = np.stack(members)
        if not is_hermitian(stack):
            raise NotHermitianError("measurement element is not Hermitian within tolerance")
        _check_psd(stack)
        _check_identity_sum(stack.sum(axis=0))  # member after member
        object.__setattr__(self, "elements", _frozen(stack))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class BitPovms(Sequence):
    """n two-outcome measurements held as one frozen (n, d, d) array ``f0s`` of
    their outcome-0 operators F0_i; outcome 1 is I - F0_i by definition.

    The check is Hermiticity and a spectrum inside [-TOL_PSD, 1 + TOL_PSD],
    so both outcomes are PSD: two batched Cholesky tests at ``TOL_PSD`` on
    the lower triangles, of F0 and of I - F0.  A bad member raises the error
    ``Povm((F0_i, I - F0_i))`` would.  A diagonal stack's spectrum is read
    off its diagonal.  Indexing forms that Povm.
    """

    f0s: np.ndarray

    def __post_init__(self):
        f0s = np.array(self.f0s, dtype=complex)
        if f0s.ndim != 3 or not f0s.size or f0s.shape[1] != f0s.shape[2]:
            raise ValidationError(f"expected an (n, d, d) operator stack, got shape {f0s.shape}")
        check_dim_cap(f0s.shape[1])
        if not is_hermitian(f0s):
            raise NotHermitianError("measurement element is not Hermitian within tolerance")
        diag = f0s.diagonal(axis1=1, axis2=2)
        if np.count_nonzero(f0s) != np.count_nonzero(diag):
            _check_psd(f0s)
            _check_psd(np.eye(f0s.shape[1]) - f0s)
        elif diag.real.min() < -TOL_PSD or diag.real.max() > 1.0 + TOL_PSD:
            raise ValidationError("measurement element has a negative eigenvalue")
        object.__setattr__(self, "f0s", _frozen(f0s))

    def __len__(self) -> int:
        return len(self.f0s)

    def __getitem__(self, i: int) -> Povm:
        f0 = self.f0s[i]
        return Povm((f0, np.eye(len(f0)) - f0))


@dataclass(frozen=True, eq=False)
class GramPovm:
    """A measurement held as Gram factors: element k is B_k B_k^dag, with the
    factors stacked as one frozen (k, d, s) array, and element 0 adds C C^dag
    of the (d, l) factor ``leftover``, which has no columns (l = 0) where
    element 0 holds nothing more.

    Each element is PSD by construction, so validation is the identity sum,
    one (d, k s)(k s, d) product plus C C^dag.  The outcome labels are
    0..k-1.  Each of ``elements`` is formed when indexed, and not kept.
    """

    factors: np.ndarray
    leftover: np.ndarray

    def __post_init__(self):
        factors = np.array(self.factors, dtype=complex)
        leftover = np.array(self.leftover, dtype=complex)
        if factors.ndim != 3 or not len(factors) or not factors.shape[1]:
            raise ValidationError(f"expected a (k, d, s) factor stack, got shape {factors.shape}")
        dim = factors.shape[1]
        check_dim_cap(dim)
        if leftover.ndim != 2 or len(leftover) != dim:
            raise DimensionMismatchError("measurement elements differ in dimension")
        rows = factors.transpose(0, 2, 1).reshape(-1, dim)
        _check_identity_sum(rows.T @ rows.conj() + leftover @ leftover.conj().T)
        object.__setattr__(self, "factors", _frozen(factors))
        object.__setattr__(self, "leftover", _frozen(leftover))

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def elements(self) -> "_GramElements":
        return _GramElements(self)

    def table(self, states: GramStates) -> np.ndarray:
        """(N, k) table Tr(E_k rho_x) = ||A_x^dag B_k||_F^2, plus ||A_x^dag C||_F^2
        in the first column: one (N r, d)(d, k s) product and one (N r, d)(d, l)."""
        (size, dim, rank), (count, _, width) = states.factors.shape, self.factors.shape
        rows = states.factors.transpose(0, 2, 1).reshape(size * rank, dim).conj()
        g = rows @ self.factors.transpose(1, 0, 2).reshape(dim, count * width)
        table = (g.real**2 + g.imag**2).reshape(size, rank, count, width).sum(axis=(1, 3))
        g = rows @ self.leftover
        table[:, 0] += (g.real**2 + g.imag**2).sum(axis=1).reshape(size, rank).sum(axis=1)
        return table

    def diagonal(self, states: GramStates) -> np.ndarray:
        """(k,) Tr(E_y rho_y) = ||A_y^dag B_y||_F^2 over k states in outcome
        order, one (r, d)(d, s) product per outcome, plus ||A_0^dag C||_F^2
        on the first."""
        g = states.factors.conj().swapaxes(1, 2) @ self.factors
        diag = (g.real**2 + g.imag**2).sum(axis=(1, 2))
        g = states.factors[0].conj().T @ self.leftover
        diag[0] += (g.real**2 + g.imag**2).sum()
        return diag


class _GramElements(Sequence):
    """The elements of a GramPovm in stored order, each formed when indexed."""

    def __init__(self, povm: GramPovm):
        self._povm = povm

    def __len__(self) -> int:
        return len(self._povm)

    def __getitem__(self, k: int) -> np.ndarray:
        elem = gram_dense(self._povm.factors[k][None])[0]
        if range(len(self))[k] == 0:
            elem += gram_dense(self._povm.leftover[None])[0]
        return elem
