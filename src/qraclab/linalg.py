"""Hermitian linear algebra kernels and the basic quantum containers.

Everything downstream (measurements, decoders, solvers) is built on the
handful of operations here, so tolerances and support-cutoff semantics
are fixed in this module and imported elsewhere.

The containers are stacked and view-backed.  A ``Povm`` validates its
elements as one (k, d, d) array, with one batched Hermiticity reduction
and one batched ``eigvalsh``, keeps that frozen array as
``element_stack`` and hands out ``elements`` as read-only views into it.
``DensityMatrix.stack`` validates a whole encoder the same way and returns
density matrices whose ``mat`` are views into one frozen array; a single
``DensityMatrix`` is validated as a stack of one.  Either way a bad
member raises the error, with the message and tolerance, that its own
per-matrix constructor would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSplitError,
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
TOL_EIG = 1e-8
SUPPORT_CUTOFF = 1e-12  # relative to the largest eigenvalue
TOL_TIE = 1e-12
DIM_CAP = 2**10


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


def is_hermitian(a, tol: float = TOL_HERM) -> bool:
    """Whether a matrix, or every member of a (k, d, d) stack, equals its
    conjugate transpose within ``tol`` in every entry."""
    a = _as_array(a)
    return a.shape[-2] == a.shape[-1] and np.abs(a - a.conj().swapaxes(-2, -1)).max() <= tol


def eig_hermitian(a, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a.

    Raises NotHermitianError if ``a`` deviates from Hermitian symmetry by
    more than ``tol`` in any entry.
    """
    a = _as_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not is_hermitian(a, tol):
        raise NotHermitianError(
            f"matrix deviates from Hermitian symmetry by {np.abs(a - a.conj().T).max():.3e}"
        )
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]


def _sqrt_pinv_with_support(a: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root on the support of ``a`` plus the support projector."""
    vals, vecs = eig_hermitian(a)
    top = vals[0]
    if top <= 0.0:
        dim = a.shape[0]
        return np.zeros((dim, dim), dtype=complex), np.zeros((dim, dim), dtype=complex)
    keep = vals >= cutoff * top
    kept_vecs = vecs[:, keep]
    inv_sqrt = (kept_vecs * (vals[keep] ** -0.5)) @ kept_vecs.conj().T
    proj = kept_vecs @ kept_vecs.conj().T
    return inv_sqrt, proj


def sqrt_pinv_on_support(rho, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """rho^{-1/2} restricted to the support of rho.

    Eigenvalues below ``cutoff`` times the largest eigenvalue are treated
    as zero and excluded from the inversion.
    """
    return _sqrt_pinv_with_support(_as_array(rho), cutoff)[0]


def support_projector(rho, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Orthogonal projector onto the support of rho."""
    return _sqrt_pinv_with_support(_as_array(rho), cutoff)[1]


def trace_norm(a) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    a = _as_array(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if is_hermitian(a):
        return float(np.abs(np.linalg.eigvalsh(a)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def trace_table(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Real (k, N) table Tr(ops[k] states[x]) for stacks of k and N square
    matrices, as one complex matmul: Tr(A B) is the sum of A^T * B entrywise."""
    k, n_states = len(ops), len(states)
    flat_ops = np.asarray(ops).transpose(0, 2, 1).reshape(k, -1)
    return (flat_ops @ np.asarray(states).reshape(n_states, -1).T).real


def paired_traces(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Real diagonal Tr(ops[x] states[x]) of two equally long stacks."""
    return np.einsum("xij,xji->x", ops, states).real


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference of two states."""
    r, s = _as_array(rho), _as_array(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shape mismatch {r.shape} vs {s.shape}")
    return 0.5 * trace_norm(r - s)


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the first factor is the most significant register."""
    return np.kron(_as_array(a), _as_array(b))


def partial_trace(a, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` are the subsystem dimensions in register order; their product
    must equal the matrix dimension.
    """
    a = _as_array(a)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise BadSplitError(f"dims {dims} do not factor shape {a.shape}")
    k = len(dims)
    keep = tuple(sorted(keep))
    reshaped = a.reshape(dims + dims)
    for sub in sorted(set(range(k)) - set(keep), reverse=True):
        reshaped = np.trace(reshaped, axis1=sub, axis2=sub + reshaped.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reshaped.reshape(d_keep, d_keep)


def _validated_states(
    mats, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD, tol_trace: float = TOL_TRACE
) -> np.ndarray:
    """Check a (k, d, d) stack of density matrices, each Hermitian, unit
    trace and PSD within tolerance, and return it as one frozen complex
    array.  A bad member raises the error its own constructor would."""
    try:
        stack = np.array(mats, dtype=complex)
    except ValueError as err:  # members of different shapes, or not numbers
        raise ValidationError(f"density matrices do not form one stack: {err}") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(f"expected a square matrix, got shape {stack.shape[1:]}")
    check_dim_cap(stack.shape[1])
    if not is_hermitian(stack, tol_herm):
        raise NotHermitianError("density matrix is not Hermitian within tolerance")
    traces = np.trace(stack, axis1=1, axis2=2).real
    off = np.flatnonzero(np.abs(traces - 1.0) > tol_trace)
    if off.size:
        raise ValidationError(f"trace {traces[off[0]]} is not 1 within {tol_trace}")
    if np.linalg.eigvalsh(stack).min() < -tol_psd:
        raise ValidationError("density matrix has a negative eigenvalue beyond tolerance")
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix: Hermitian, PSD, unit trace."""

    mat: np.ndarray
    tol_herm: float = field(default=TOL_HERM, repr=False)
    tol_psd: float = field(default=TOL_PSD, repr=False)
    tol_trace: float = field(default=TOL_TRACE, repr=False)

    def __post_init__(self):
        stack = _validated_states(
            _as_array(self.mat)[None], self.tol_herm, self.tol_psd, self.tol_trace
        )
        object.__setattr__(self, "mat", stack[0])

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def stack(cls, mats) -> tuple["DensityMatrix", ...]:
        """Validate a (k, d, d) stack once, with the default tolerances, and
        return its members as density matrices whose ``mat`` are read-only
        views into one frozen array."""
        out = []
        for mat in _validated_states(mats):
            rho = object.__new__(cls)
            object.__setattr__(rho, "mat", mat)  # the tolerances read the class defaults
            out.append(rho)
        return tuple(out)

    @classmethod
    def from_state_vector(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValidationError("zero state vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure with integer outcome labels.

    Elements must each be Hermitian and PSD within tolerance and must sum
    to the identity entrywise within ``tol_povm``.  They are validated and
    kept as one frozen (k, d, d) array, ``element_stack``; ``elements`` are
    read-only views into it.
    """

    elements: tuple[np.ndarray, ...]
    outcomes: tuple[int, ...] = None
    tol_povm: float = field(default=TOL_POVM, repr=False)
    tol_psd: float = field(default=TOL_PSD, repr=False)
    element_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = [_as_array(e) for e in self.elements]
        if not members:
            raise ValidationError("measurement needs at least one element")
        dim = members[0].shape[0]
        check_dim_cap(dim)
        outcomes = self.outcomes
        if outcomes is None:
            outcomes = tuple(range(len(members)))
        else:
            outcomes = tuple(int(o) for o in outcomes)
        if len(outcomes) != len(members):
            raise ValidationError("one outcome label per element required")
        if len(set(outcomes)) != len(outcomes):
            raise ValidationError("duplicate outcome labels")
        if any(e.shape != (dim, dim) for e in members):
            raise DimensionMismatchError("measurement elements differ in dimension")
        stack = np.stack(members)
        if not is_hermitian(stack):
            raise NotHermitianError("measurement element is not Hermitian within tolerance")
        if np.linalg.eigvalsh(stack).min() < -self.tol_psd:
            raise ValidationError("measurement element has a negative eigenvalue")
        # summed along the stack axis, member after member
        deviation = np.abs(stack.sum(axis=0) - np.eye(dim)).max()
        if deviation > self.tol_povm:
            raise ValidationError(
                f"elements sum to identity only within {deviation:.3e} > {self.tol_povm}"
            )
        stack.flags.writeable = False
        object.__setattr__(self, "element_stack", stack)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def dim(self) -> int:
        return self.element_stack.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    def probabilities(self, rho) -> np.ndarray:
        """Outcome probabilities for measuring ``rho``, in stored order."""
        return trace_table(self.element_stack, _as_array(rho)[None])[:, 0]
