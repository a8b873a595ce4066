"""Reference helpers shared by the test modules, written from the
definitions alone and independent of the package's kernels."""

import numpy as np


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
