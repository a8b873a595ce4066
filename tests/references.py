"""Reference helpers shared by the test modules, written from the
definitions alone and independent of the package's kernels, and the one
call counter that the tests pinning how often a kernel runs share."""

import numpy as np

from qraclab.info import ClassicalChannel
from qraclab.linalg import TOL_PSD


def rotate_ref(x, d, n):
    """shift_d by slicing the n-character bit string: output bit j is input
    bit (j + d) mod n, counted from the most significant end."""
    bits = format(x, f"0{n}b")
    return int(bits[d % n:] + bits[: d % n], 2)


def shift_perm(r, d, n):
    """The permutation z -> shift_d(z XOR r) over all 2^n strings."""
    return np.array([rotate_ref(z ^ r, d, n) for z in range(2**n)])


def random_density(rng, dim, pure=False):
    """A random (dim, dim) density matrix: |v><v| / <v|v> for a complex
    Gaussian vector v with ``pure``, else G G^dag / Tr(G G^dag) for a complex
    Gaussian matrix G."""
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def helstrom_pair(p0, rho0, p1, rho1):
    """Largest chance that a two-outcome measurement tells rho0 (prior p0)
    from rho1 (prior p1): (1 + ||p0 rho0 - p1 rho1||_1) / 2, the trace norm
    read off the dense difference's ``eigvalsh`` spectrum."""
    diff = p0 * np.asarray(rho0, dtype=complex) - p1 * np.asarray(rho1, dtype=complex)
    return 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(diff)).sum())


def random_channel(rng, n_in, n_out, zero_frac=0.0):
    """An n_in x n_out channel of Dirichlet(1) rows; with ``zero_frac``, that
    share of entries is zeroed, each row's largest kept, and the rows are
    renormalized."""
    table = rng.dirichlet(np.ones(n_out), size=n_in)
    if zero_frac > 0.0:
        mask = rng.random((n_in, n_out)) < zero_frac
        mask[np.arange(n_in), table.argmax(axis=1)] = False
        table = np.where(mask, 0.0, table)
        table /= table.sum(axis=1, keepdims=True)
    return ClassicalChannel(table)


def random_sparse_channel(rng, n_in=None, n_out=None):
    """A channel of 2..16 inputs and outputs where not given, with Dirichlet
    rows of one random concentration; in 40% of draws a fifth of the entries
    are zeroed and the rows renormalized, to exercise support handling."""
    n_in = n_in or int(rng.integers(2, 17))
    n_out = n_out or int(rng.integers(2, 17))
    table = rng.dirichlet(np.full(n_out, rng.uniform(0.3, 2.0)), size=n_in)
    if rng.random() < 0.4:
        mask = rng.random(size=table.shape) < 0.2
        table = np.where(mask, 0.0, table)
        table /= table.sum(axis=1, keepdims=True)
    return ClassicalChannel(table)


def _blocks(codes, x):
    """The factors' blocks of string x, block 1 most significant."""
    out = []
    for q in reversed(codes):
        out.append(x & (2**q.n - 1))
        x >>= q.n
    return out[::-1]


def product_reference(codes):
    """The encoder of the product of ``codes`` as a per-matrix np.kron chain
    over each string's blocks."""
    encoder = []
    for x in range(2 ** sum(q.n for q in codes)):
        mat = np.array([[1.0 + 0j]])
        for q, block in zip(codes, _blocks(codes, x)):
            mat = np.kron(mat, q.encoder[block].mat)
        encoder.append(mat)
    return np.stack(encoder)


def product_vectors(codes):
    """Each string's state vector in the product of pure ``codes``, as a
    per-vector np.kron chain."""
    out = []
    for x in range(2 ** sum(q.n for q in codes)):
        vec = np.array([1.0 + 0j])
        for q, block in zip(codes, _blocks(codes, x)):
            vec = np.kron(vec, q.encoder.factors[block, :, 0])
        out.append(vec)
    return np.stack(out)


def padded_decoders_reference(codes):
    """Each global bit's outcome-0 operator in the product of ``codes``,
    np.kron(np.kron(I_left, F0), I_right) per decoder, with the identities
    sized to the factors before and after its block."""
    dims = [q.dim for q in codes]
    out = []
    for j, q in enumerate(codes):
        left, right = int(np.prod(dims[:j])), int(np.prod(dims[j + 1 :]))
        out.extend(np.kron(np.kron(np.eye(left), f0), np.eye(right)) for f0 in q.decoders.f0s)
    return np.stack(out)


def psd_verdict(stack, upper):
    """Whether every member of a Hermitian stack passes the measurement
    check by its ``eigvalsh`` spectrum (lower triangle): no eigenvalue below
    -TOL_PSD and, with ``upper``, none above 1 + TOL_PSD."""
    vals = np.linalg.eigvalsh(stack)
    return bool(vals.min() >= -TOL_PSD and (not upper or vals.max() <= 1.0 + TOL_PSD))


def count_calls(monkeypatch, owner, name, counts, key=None):
    """Wrap ``owner.name`` through ``monkeypatch`` so that each call adds one
    to ``counts[key(*args, **kwargs)]``, or to ``counts[name]`` without a
    key, and then runs the original.  ``counts`` is a Counter that several
    wrapped functions may share."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name if key is None else key(*args, **kwargs)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
