import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qraclab.bits import bit_columns
from qraclab.errors import (
    DimensionMismatchError,
    NotHermitianError,
    SizeCapError,
    ValidationError,
)
from qraclab.linalg import (
    _GRAM_CHUNK,
    TOL_POVM,
    TOL_PSD,
    TOL_TRACE,
    BitPovms,
    DensityMatrix,
    GramPovm,
    GramStates,
    Povm,
    _sqrt_pinv_with_support,
    _unchecked,
    argmax_first,
    as_states,
    bit_sums,
    eig_hermitian,
    gram_dense,
    is_hermitian,
    trace_table,
)
from qraclab.pgm import _hermitize, helstrom_success
from qraclab.qrac import (
    Ensemble,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
)
from qraclab.rng import stream
from references import (
    count_calls,
    helstrom_pair,
    psd_verdict,
    product_reference,
    product_vectors,
    random_density,
)

C = np.cos(np.pi / 8)
S = np.sin(np.pi / 8)


def angle_state(c, s):
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def gram_sums(factors, weights):
    """Reference (j, d, d) sums sum_x weights[j, x] A_x A_x^dag of a factor stack."""
    return np.einsum("jx,xdr,xer->jde", weights, factors, factors.conj())


class TestEigHermitian:
    def test_identity(self):
        vals, vecs = eig_hermitian(np.eye(3))
        np.testing.assert_allclose(vals, [1, 1, 1])
        np.testing.assert_allclose(vecs @ vecs.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_descending(self):
        vals, _ = eig_hermitian(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(vals, [3.0, -1.0])

    def test_pauli_x(self):
        # characteristic polynomial l^2 - 1 = 0
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        vals, vecs = eig_hermitian(x)
        np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, x, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        vals, vecs = eig_hermitian(a)
        assert (np.diff(vals) <= 1e-12).all()
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-10)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            eig_hermitian(np.ones((2, 3)))


def sqrt_pinv(rho):
    """The PGM's inverse square root on the support of ``rho``, hermitized as
    the PGM hands it over, and the support projector: the identity less the
    Gram product of the eigenvectors off the support."""
    isqrt, off, _ = _sqrt_pinv_with_support(_hermitize(np.asarray(rho, dtype=complex)))
    return isqrt, np.eye(len(isqrt)) - off @ off.conj().T


class TestSqrtPinv:
    def test_maximally_mixed_qubit(self):
        got, _ = sqrt_pinv(np.eye(2) / 2)
        np.testing.assert_allclose(got, np.sqrt(2) * np.eye(2), atol=1e-12)

    def test_pure_state_is_own_pinv_sqrt(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(sqrt_pinv(proj)[0], proj, atol=1e-12)

    def test_quarter_three_quarter(self):
        got, _ = sqrt_pinv(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(got, np.diag([2.0, 2 / np.sqrt(3)]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich_gives_support_projector(self, seed):
        rng = np.random.default_rng(seed)
        dim = 6
        rank = int(rng.integers(1, dim + 1))
        # random rank-deficient state
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = g @ g.conj().T
        rho /= rho.trace()
        isqrt, proj = sqrt_pinv(rho)
        np.testing.assert_allclose(isqrt @ rho @ isqrt, proj, atol=1e-9)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-9)
        assert np.linalg.matrix_rank(proj, tol=1e-8) == rank

    def test_cutoff_drops_small_eigenvalues(self):
        rho = np.diag([1.0, 1e-13]) / (1 + 1e-13)
        got, _ = sqrt_pinv(rho)
        assert abs(got[1, 1]) < 1e-6  # small direction excluded, not inverted


def distance(a, b):
    """Trace distance ||a - b||_1 / 2, read through the Helstrom kernel at
    p = 1/2, whose success is (1 + distance) / 2."""
    return 2.0 * helstrom_success(Ensemble((0.5, 0.5), (a, b)))[0] - 1.0


class TestTraceNormAndDistance:
    def test_diagonal(self):
        # commuting states: half the l1 distance of their spectra
        a, b = np.diag([0.7, 0.2, 0.1]), np.diag([0.1, 0.3, 0.6])
        assert distance(a, b) == pytest.approx(0.6, abs=1e-15)

    def test_angle_state_difference(self):
        # difference is 2*cos*sin times Pauli-X, eigenvalues +-sin(pi/4)
        a, b = angle_state(C, S), angle_state(C, -S)
        assert distance(a, b) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert distance(a, b) == pytest.approx(2 * helstrom_pair(0.5, a, 0.5, b) - 1, abs=1e-15)

    def test_orthogonal_pure_states(self):
        assert distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_identical_states(self):
        rho = np.eye(4) / 4
        assert distance(rho, rho) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="do not form one stack"):
            distance(np.eye(2) / 2, np.eye(4) / 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_is_refused(self, bad, where):
        """A state with a NaN or infinite entry never reaches the kernel: the
        ensemble refuses it as not Hermitian, without a numpy warning."""
        a = np.eye(2, dtype=complex) / 2
        a[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError):
                distance(a, np.eye(2) / 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, b, c = (random_density(rng, 4) for _ in range(3))
        dab = distance(a, b)
        assert 0.0 <= dab <= 1.0 + 1e-12
        assert dab == pytest.approx(distance(b, a), abs=1e-12)
        assert dab <= distance(a, c) + distance(c, b) + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_max_projector_characterization(self, seed):
        # distance equals Tr(P (rho - sigma)) for P projecting on the
        # positive eigenspace of the difference
        rng = np.random.default_rng(200 + seed)
        a, b = random_density(rng, 5), random_density(rng, 5)
        vals, vecs = eig_hermitian(a - b)
        pos = vecs[:, vals > 0]
        proj = pos @ pos.conj().T
        achieved = np.einsum("ij,ji->", proj, a - b).real
        assert distance(a, b) == pytest.approx(achieved, abs=1e-10)


class TestDensityMatrix:
    def test_accepts_valid(self):
        dm = DensityMatrix(np.eye(2) / 2)
        assert dm.mat.shape == (2, 2)
        assert not dm.mat.flags.writeable

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_oversize(self):
        with pytest.raises(SizeCapError):
            DensityMatrix(np.eye(2**11) / 2**11)


class TestPovm:
    def test_computational_basis(self):
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        probs = np.einsum("kij,ji->k", povm.elements, angle_state(C, S)).real
        np.testing.assert_allclose(probs, [C * C, S * S], atol=1e-12)
        assert probs.sum() == pytest.approx(1.0)

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError):
            Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))

    def test_rejects_negative_element(self):
        with pytest.raises(ValidationError):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))


def test_is_hermitian_tolerance():
    a = np.eye(2) + np.array([[0, 1e-12], [0, 0]])
    assert is_hermitian(a)
    assert not is_hermitian(a * 1e5)


def test_is_hermitian_reads_a_strided_view():
    """A matrix whose entries are every other element of a buffer."""
    buffer = np.zeros(8, dtype=complex)
    buffer[[0, 6]] = 1.0
    assert is_hermitian(buffer[::2].reshape(2, 2))
    buffer[2] = 1.0
    assert not is_hermitian(buffer[::2].reshape(2, 2))


def test_a_stack_of_no_members_is_hermitian():
    assert is_hermitian(np.zeros((0, 2, 2)))
    vals, vecs = eig_hermitian(np.zeros((0, 2, 2)))
    assert vals.shape == (0, 2) and vecs.shape == (0, 2, 2)


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda: BitPovms(np.zeros((2, 0, 0))), "(2, 0, 0)"),
        (lambda: Povm(np.zeros((2, 0, 0))), "(0, 0)"),
        (lambda: DensityMatrix(np.zeros((0, 0))), "(0, 0)"),
        (lambda: as_states(np.zeros((2, 0, 0))), "(0, 0)"),
        (lambda: GramPovm(np.zeros((2, 0, 1)), np.zeros((0, 0))), "(2, 0, 1)"),
    ],
    ids=["bit_povms", "povm", "density_matrix", "states", "gram_povm"],
)
def test_empty_stack_raises_validation_error_naming_its_shape(build, shape):
    with pytest.raises(ValidationError) as info:
        build()
    assert shape in str(info.value)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_infinite_entries_are_not_hermitian_without_a_warning(bad, where):
    """An infinite entry, on the diagonal or off it, fails the Hermiticity
    check before A - A^dag is formed, so numpy never evaluates inf - inf:
    any warning fails the test."""
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1][where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_hermitian(stack)
        for build in (BitPovms, Povm, eig_hermitian):
            with pytest.raises(NotHermitianError, match="nan|not Hermitian"):
                build(stack)


def _hermitian_stack(k, d, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    return g + g.conj().swapaxes(1, 2)


@pytest.mark.parametrize("bad", [1e-6, np.nan])
def test_hermiticity_check_reaches_the_last_block(bad):
    # 64 members of 128 x 128 span several blocks; the flaw sits in the last
    stack = _hermitian_stack(64, 128)
    assert is_hermitian(stack)
    stack[-1, 0, 1] += bad
    assert not is_hermitian(stack)
    with pytest.raises(NotHermitianError, match=f"by {abs(bad):.3e}"):
        eig_hermitian(stack)


def test_hermiticity_check_memory_is_bounded():
    stack = _hermitian_stack(64, 128)
    tracemalloc.start()
    try:
        assert is_hermitian(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes / 4


@given(
    n=st.integers(min_value=1, max_value=12),
    rank=st.sampled_from([1, 2, 3]),
    dim=st.integers(min_value=1, max_value=5),
    zero_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_bit_sums_equal_masked_gram_sums(n, rank, dim, zero_share, seed):
    """Every bit's zero-sum and the total match ``gram_sums`` under the bit
    masks and under all ones within 1e-12 of the largest entry, on stacks
    whose members are zero with probability ``zero_share``."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(2**n, dim, rank)) + 1j * rng.normal(size=(2**n, dim, rank))
    factors[rng.random(2**n) < zero_share] = 0.0
    zeros, total = bit_sums(factors)
    want_zeros = gram_sums(factors, bit_columns(n) == 0)
    want_total = gram_sums(factors, np.ones((1, 2**n)))[0]
    assert zeros.shape == (n, dim, dim) and total.shape == (dim, dim)
    assert np.abs(zeros - want_zeros).max() <= 1e-12 * np.abs(want_zeros).max()
    assert np.abs(total - want_total).max() <= 1e-12 * np.abs(want_total).max()


@pytest.mark.parametrize("n, dim, rank", [(14, 8, 1), (12, 8, 2), (13, 4, 3), (10, 32, 1)])
def test_bit_sums_memory_is_bounded(n, dim, rank):
    """The kernel's peak, its outputs included, stays within 1.25 times the
    stack: it never holds a whole copy of it.  The last stack is a (10, 5)
    pure code's, whose (n + 1) d x d sums are a third of the stack."""
    rng = np.random.default_rng(n)
    factors = rng.normal(size=(2**n, dim, rank)) + 1j * rng.normal(size=(2**n, dim, rank))
    bit_sums(factors)  # builds the cached weights before tracing
    tracemalloc.start()
    try:
        bit_sums(factors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * factors.nbytes


@pytest.mark.parametrize("size", [0, 3, 12])
def test_bit_sums_needs_a_power_of_two_members(size):
    with pytest.raises(ValidationError, match="expected 2\\^n factors"):
        bit_sums(np.zeros((size, 2, 1), dtype=complex))


def per_operator_trace_table(ops, factors):
    """trace_table as one 2-D product per operator, its form before chunking:
    each entry sums the real dot products of the float64 views of a^T and
    (F a)^T."""
    size, dim, rank = factors.shape
    cols = np.ascontiguousarray(factors.transpose(0, 2, 1)).reshape(size * rank, dim)
    flat = cols.view(float)
    prods = [cols @ op.T for op in ops]
    table = np.stack([(p.view(float)[:, None, :] @ flat[:, :, None])[:, 0, 0] for p in prods])
    return table.reshape(len(ops), size, rank).sum(axis=2)


@pytest.mark.parametrize(
    "size, dim, rank, count, per_chunk",
    [
        (256, 16, 2, 6, 1),  # one operator's product fills a chunk: 2-D products
        (128, 32, 1, 6, 2),
        (256, 16, 1, 7, 2),  # a last chunk of one operator, batched
        (32, 16, 1, 5, 16),  # the (5, 4) solver's shape: one batch
        (16, 4, 3, 4, 42),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_trace_table_chunks_keep_the_per_operator_bits(size, dim, rank, count, per_chunk, seed):
    assert _GRAM_CHUNK // (size * rank * dim) == per_chunk
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(size, dim, rank)) + 1j * rng.normal(size=(size, dim, rank))
    ops = _hermitize(rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim)))
    np.testing.assert_array_equal(trace_table(ops, factors), per_operator_trace_table(ops, factors))


def random_factor_stack(rng, size, dim, rank):
    """A (size, dim, rank) complex stack whose members have unit trace."""
    factors = rng.normal(size=(size, dim, rank)) + 1j * rng.normal(size=(size, dim, rank))
    return factors / np.linalg.norm(factors, axis=(1, 2))[:, None, None]


@pytest.mark.parametrize(
    "size, dim, rank, per_chunk",
    [
        (32, 16, 1, 16),  # batched
        (512, 16, 1, 1),  # 2-D products
        (16, 4, 3, 42),
        (128, 16, 3, 1),
    ],
)
def test_trace_table_is_the_complex_trace(size, dim, rank, per_chunk):
    """Each entry is sum_a Re(conj(a) . (F a)) over the columns a of A_x,
    within 1e-14 ||F|| for unit-trace members, on both branches."""
    assert _GRAM_CHUNK // (size * rank * dim) == per_chunk
    rng = np.random.default_rng(size + rank)
    factors = random_factor_stack(rng, size, dim, rank)
    ops = _hermitize(rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim)))
    want = np.einsum("xdr,kde,xer->kx", factors.conj(), ops, factors).real
    scale = np.linalg.norm(ops, ord=2, axis=(1, 2))[:, None]
    assert np.all(np.abs(trace_table(ops, factors) - want) <= 1e-14 * scale)


@pytest.mark.parametrize("size, dim, rank", [(32, 16, 1), (1024, 16, 1), (16, 4, 3), (256, 16, 3)])
def test_trace_table_reads_strided_and_real_stacks_as_their_complex_copies(size, dim, rank):
    """The rows' float64 view needs contiguous complex rows: a strided view
    of a stack and a real stack give the table of their contiguous complex
    copies, bit for bit."""
    rng = np.random.default_rng(rank)
    factors = random_factor_stack(rng, size, dim, rank)
    ops = _hermitize(rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim)))
    strided = factors[::2]
    np.testing.assert_array_equal(
        trace_table(ops, strided), trace_table(ops, np.ascontiguousarray(strided))
    )
    real = factors.real.copy()
    np.testing.assert_array_equal(trace_table(ops, real), trace_table(ops, real.astype(complex)))


def test_argmax_first_breaks_rounding_ties_toward_first():
    assert argmax_first([0.1, 0.3, 0.3 + 1e-15, 0.2]) == 1
    assert argmax_first([0.1, 0.3, 0.3 + 1e-9, 0.2]) == 2
    assert argmax_first([0.5]) == 0


# ---------------------------------------------------------------------------
# batched validation: a bad member of a stack raises exactly what its own
# per-matrix constructor raises


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def with_spectrum(rng, spectrum):
    u = random_unitary(rng, len(spectrum))
    return (u * np.asarray(spectrum)) @ u.conj().T


def valid_states(seed, k=5, dim=4):
    rng = np.random.default_rng(seed)
    return np.stack([random_density(rng, dim) for _ in range(k)])


def bad_states(kind, rng, dim=4):
    good = random_density(rng, dim)
    if kind == "hermitian":
        bad = good.copy()
        bad[0, 1] += 1e-6
        return bad
    if kind == "trace":
        return 1.5 * good
    # one eigenvalue at -2 TOL_PSD, the rest summing to 1
    return with_spectrum(rng, [1.0 + 2 * TOL_PSD, -2 * TOL_PSD, 0.0, 0.0])


def raised(build):
    with pytest.raises(ValueError) as info:
        build()
    return type(info.value), str(info.value)


def outcome(build):
    """None if ``build()`` returns, else the type and message it raised."""
    try:
        build()
    except ValueError as err:
        return type(err), str(err)
    return None


class TestBatchedDensityValidation:
    @pytest.mark.parametrize("kind", ["hermitian", "trace", "psd"])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_bad_member_raises_as_its_own_constructor(self, kind, where):
        rng = np.random.default_rng(11)
        stack = valid_states(12)
        bad = bad_states(kind, rng)
        stack[where] = bad
        expected = raised(lambda: DensityMatrix(bad))
        assert raised(lambda: as_states(stack)) == expected
        messages = {
            "hermitian": (NotHermitianError, "density matrix is not Hermitian within tolerance"),
            "trace": (ValidationError, f"trace {bad.trace().real} is not 1 within {TOL_TRACE}"),
            "psd": (ValidationError, "density matrix has a negative eigenvalue beyond tolerance"),
        }
        assert expected == messages[kind]

    @pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)])
    def test_psd_tolerance_edge(self, scale, ok):
        rng = np.random.default_rng(15)
        stack = valid_states(16)
        stack[3] = with_spectrum(rng, [1.0 + scale * TOL_PSD, -scale * TOL_PSD, 0.0, 0.0])
        if ok:
            assert len(as_states(stack)) == 5
            DensityMatrix(stack[3])
        else:
            with pytest.raises(ValidationError):
                as_states(stack)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValidationError, match="expected a square matrix"):
            as_states(np.zeros((3, 2, 4)))

    def test_rejects_members_of_different_shapes(self):
        with pytest.raises(ValidationError, match="do not form one stack"):
            as_states([np.eye(2) / 2, np.eye(4) / 4])

    @pytest.mark.parametrize(
        "build", [lambda: as_states([]), lambda: Ensemble([], [])], ids=["states", "ensemble"]
    )
    def test_no_states_named(self, build):
        with pytest.raises(ValidationError, match="^no states given$"):
            build()


class TestGramContainers:
    def test_vectors_checked_by_norm(self):
        states = GramStates.from_vectors(np.eye(4)[:3])
        assert len(states) == 3 and states.dim == 4
        np.testing.assert_array_equal(states[1].mat, np.diag([0, 1, 0, 0]))
        with pytest.raises(ValidationError, match="trace 2.0 is not 1"):
            GramStates.from_vectors([[1.0, 1.0]])
        with pytest.raises(ValidationError, match=r"\(k, d\) array"):
            GramStates.from_vectors([1.0, 0.0])
        with pytest.raises(ValidationError, match="trace nan is not 1"):
            GramStates.from_vectors([[np.nan, 0.0], [0.0, 1.0]])

    def test_matrix_input_is_factored(self):
        stack = valid_states(18)
        states = as_states(stack)
        assert states.factors.shape == (5, 4, 4)
        np.testing.assert_allclose(
            states.factors @ states.factors.conj().swapaxes(1, 2), stack, rtol=0, atol=1e-14
        )

    def test_povm_checked_by_identity_sum_and_extra(self):
        """A factored measurement is checked by the identity sum of its
        factors and its (d, l) leftover factor, which adds to element 0.
        (The name is historical: the leftover was once held as a d x d
        ``extra`` matrix.)"""
        vecs = np.eye(3)[:, :, None]
        none = np.zeros((3, 0))
        povm = GramPovm(vecs, none)
        assert len(povm) == len(povm.elements) == 3
        np.testing.assert_array_equal(povm.elements[2], np.diag([0, 0, 1]))
        with pytest.raises(ValidationError, match="sum to identity"):
            GramPovm(vecs[:2], none)
        np.testing.assert_array_equal(
            GramPovm(vecs[1:], np.eye(3)[:, :1]).elements[0], np.diag([1, 1, 0])
        )
        with pytest.raises(DimensionMismatchError, match="differ in dimension"):
            GramPovm(vecs, np.zeros((2, 0)))
        with pytest.raises(ValidationError, match="sum to identity"):
            GramPovm(np.full((2, 2, 1), np.nan), np.zeros((2, 0)))

    @pytest.mark.parametrize("case", ["valid"])
    def test_povm_from_total_checks_as_the_public_constructor(self, case):
        """The unchecked constructor, given factors whose identity sum the
        caller has checked, holds the measurement the public constructor
        makes of the same factors.  (The name is historical: it was
        ``_from_total``, whose sum check now runs in ``pgm._pgm_raw``.)"""
        vecs = np.eye(3, dtype=complex)[1:, :, None]
        leftover = np.eye(3, dtype=complex)[:, :1]
        np.testing.assert_array_equal(
            np.stack(_unchecked(GramPovm, factors=vecs, leftover=leftover).elements),
            np.stack(GramPovm(vecs, leftover).elements),
        )

    def test_matrix_input_keeps_numerical_rank(self):
        rng = np.random.default_rng(19)
        vecs = [random_unitary(rng, 4)[:, :rank] for rank in (1, 2, 1)]
        stack = np.stack([v @ v.conj().T / v.shape[1] for v in vecs])
        states = as_states(stack)
        assert states.factors.shape == (3, 4, 2)
        np.testing.assert_array_equal(states.factors[[0, 2], :, 0], 0)
        np.testing.assert_allclose(
            states.factors @ states.factors.conj().swapaxes(1, 2), stack, rtol=0, atol=1e-14
        )

    def test_pure_code_read_as_matrices_is_vectors(self):
        q = build_random_qrac(6, 3, 0)
        back = as_states(gram_dense(q.encoder.factors))
        assert back.factors.shape == (64, 8, 1)
        np.testing.assert_allclose(
            gram_dense(back.factors), gram_dense(q.encoder.factors), rtol=0, atol=1e-15
        )


def valid_povm(seed, k=4, dim=3):
    """k elements U diag(w_j) U^dag whose weights sum to one per column."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    weights = rng.dirichlet(np.ones(k), size=dim).T  # (k, dim)
    return np.stack([(u * w) @ u.conj().T for w in weights]), u, weights


def sequential_sum_message(elements):
    total = np.zeros(elements[0].shape, dtype=complex)
    for e in elements:
        total += e
    dev = np.abs(total - np.eye(len(total))).max()
    return f"elements sum to identity only within {dev:.3e} > {TOL_POVM}"


class TestBatchedPovmValidation:
    @pytest.mark.parametrize("where", [0, 2, 3])
    def test_non_hermitian_member(self, where):
        elements, _, _ = valid_povm(21)
        elements[where, 0, 1] += 1e-6
        expected = (NotHermitianError, "measurement element is not Hermitian within tolerance")
        assert raised(lambda: Povm(tuple(elements))) == expected
        assert raised(lambda: Povm((elements[where],))) == expected

    @pytest.mark.parametrize("scale, ok", [(0.5, True), (2.0, False)])
    def test_negative_eigenvalue_edge(self, scale, ok):
        _, u, weights = valid_povm(22)
        shift = scale * TOL_PSD
        weights[2, 0] = -shift
        weights[3, 0] += 1.0 - weights[:, 0].sum()
        elements = np.stack([(u * w) @ u.conj().T for w in weights])
        if ok:
            assert len(Povm(tuple(elements))) == 4
        else:
            expected = (ValidationError, "measurement element has a negative eigenvalue")
            assert raised(lambda: Povm(tuple(elements))) == expected
            assert raised(lambda: Povm((elements[2],))) == expected

    def test_sum_off_identity(self):
        elements, _, _ = valid_povm(23)
        elements[1] *= 1.001
        expected = (ValidationError, sequential_sum_message(elements))
        assert raised(lambda: Povm(tuple(elements))) == expected
        assert raised(lambda: Povm(elements)) == expected

    def test_elements_are_one_frozen_stack(self):
        elements, _, _ = valid_povm(24)
        povm = Povm(tuple(elements))
        assert isinstance(povm.elements, np.ndarray)
        assert not povm.elements.flags.writeable
        np.testing.assert_array_equal(povm.elements, elements)


# ---------------------------------------------------------------------------
# stacked encoder construction against per-matrix references


def random_encoder_reference(n, m, seed):
    rng = stream(seed, 0)
    out = []
    for _ in range(2**n):
        v = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
        v = v / np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return np.stack(out)


@pytest.mark.parametrize("k", [3, 5])
def test_tensor_power_encoder_bit_identical(k):
    """The stored vectors are the per-vector Kronecker products bit for bit;
    their outer products round differently from a Kronecker product of the
    blocks' matrices, so the dense view is held to 1e-15."""
    std = build_standard_2to1()
    q = build_tensor_power(std, k)
    np.testing.assert_array_equal(q.encoder.factors[:, :, 0], product_vectors([std] * k))
    np.testing.assert_allclose(
        gram_dense(q.encoder.factors), product_reference([std] * k), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("seed", range(5))
def test_random_encoder_bit_identical(seed):
    n, m = 6, 3
    q = build_random_qrac(n, m, seed=seed)
    np.testing.assert_array_equal(
        gram_dense(q.encoder.factors), random_encoder_reference(n, m, seed)
    )


def valid_f0s(seed, n=5, dim=3):
    """n outcome-0 operators U diag(w) U^dag with spectra inside [0, 1]."""
    rng = np.random.default_rng(seed)
    return np.stack([with_spectrum(rng, rng.uniform(0.1, 0.9, dim)) for _ in range(n)])


def as_povm(f0):
    return Povm((f0, np.eye(len(f0)) - f0))


class TestBitPovms:
    def test_rejects_oversize_as_every_container_does(self):
        with pytest.raises(SizeCapError, match="dimension 2048 exceeds cap 1024"):
            BitPovms(np.zeros((1, 2048, 2048)))

    @pytest.mark.parametrize("kind", ["hermitian", "below", "above"])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_bad_member_raises_as_its_povm(self, kind, where):
        f0s = valid_f0s(31)
        if kind == "hermitian":
            f0s[where, 0, 1] += 1e-6
        else:
            edge = -2 * TOL_PSD if kind == "below" else 1.0 + 2 * TOL_PSD
            f0s[where] = with_spectrum(np.random.default_rng(32), [edge, 0.5, 0.25])
        expected = raised(lambda: as_povm(f0s[where]))
        assert raised(lambda: BitPovms(f0s)) == expected
        assert expected == {
            "hermitian": (NotHermitianError, "measurement element is not Hermitian within tolerance"),
            "below": (ValidationError, "measurement element has a negative eigenvalue"),
            "above": (ValidationError, "measurement element has a negative eigenvalue"),
        }[kind]

    @pytest.mark.parametrize("edge", [-0.5 * TOL_PSD, 1.0 + 0.5 * TOL_PSD])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_tolerance_edge_passes(self, edge, where):
        f0s = valid_f0s(33)
        f0s[where] = with_spectrum(np.random.default_rng(34), [edge, 0.5, 0.25])
        assert len(BitPovms(f0s)) == 5
        as_povm(f0s[where])

    @pytest.mark.parametrize("entry", [-1e-6, 1.0 + 1e-6])
    def test_diagonal_stack_spectrum_is_its_diagonal(self, entry, monkeypatch):
        f0s = np.stack([np.diag([1.0, 0.0, 0.5]), np.diag([0.0, 1.0, -0.5 * TOL_PSD])])
        bad = f0s.copy()
        bad[1, 2, 2] = entry
        expected = raised(lambda: as_povm(bad[1]))
        assert expected == (ValidationError, "measurement element has a negative eigenvalue")
        solved = Counter()
        count_calls(monkeypatch, np.linalg, "cholesky", solved, key=lambda a: a.shape)
        assert len(BitPovms(f0s)) == 2
        assert raised(lambda: BitPovms(bad)) == expected
        assert solved == {}
        f0s[0, :2, :2] = 0.5  # the same spectrum, no longer diagonal
        assert len(BitPovms(f0s)) == 2 and solved == {(2, 3, 3): 2}  # F0, then I - F0

    def test_members_read_back_as_f0_and_complement(self):
        f0s = valid_f0s(35)
        bits = BitPovms(f0s)
        assert len(bits) == 5 and not bits.f0s.flags.writeable
        f0s[0, 0, 0] = 7.0  # the caller's array is copied
        assert bits.f0s[0, 0, 0] != 7.0
        for i, dec in enumerate(bits):
            assert isinstance(dec, Povm) and len(dec) == 2
            np.testing.assert_array_equal(dec.elements[0], bits.f0s[i])
            np.testing.assert_array_equal(dec.elements[1], np.eye(3) - bits.f0s[i])

    @given(
        k=st.integers(min_value=1, max_value=6),
        dim=st.integers(min_value=1, max_value=32),
        side=st.sampled_from(["below 0", "above 1"]),
        factor=st.sampled_from([0.95, 1.05]),
        diagonal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_cholesky_check_agrees_with_the_spectrum(self, k, dim, side, factor, diagonal, seed):
        """Random stacks with spectra inside [0, 1], one member given an
        extreme eigenvalue (1 +- 0.05) TOL_PSD beyond 0 or beyond 1: BitPovms
        (both bounds) and Povm (the lower bound) accept or reject exactly as
        the ``eigvalsh`` verdict does.  A finite indefinite stack is refused
        as a negative eigenvalue, a NaN or infinite entry as not Hermitian,
        and numpy's LinAlgError never escapes."""
        rng = np.random.default_rng(seed)
        spectra = rng.uniform(0.0, 1.0, size=(k, dim))
        where = int(rng.integers(k))
        extreme = factor * TOL_PSD
        spectra[where, int(rng.integers(dim))] = -extreme if side == "below 0" else 1.0 + extreme
        stack = np.stack([
            np.diag(w).astype(complex) if diagonal else with_spectrum(rng, w) for w in spectra
        ])
        negative = (ValidationError, "measurement element has a negative eigenvalue")
        verdict = outcome(lambda: BitPovms(stack))
        assert verdict == (None if psd_verdict(stack, upper=True) else negative)
        verdict = outcome(lambda: Povm(stack))  # an accepted stack meets the identity sum next
        assert (verdict == negative) != psd_verdict(stack, upper=False)
        assert verdict is None or issubclass(verdict[0], ValidationError)

        indefinite = stack.copy()
        indefinite[where] = with_spectrum(rng, np.linspace(-1.0, 1.0, dim))
        for build in (BitPovms, Povm):
            assert outcome(lambda: build(indefinite)) == negative

        bad = stack.copy()
        bad[where, rng.integers(dim), rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf])
        for build in (BitPovms, Povm):
            assert outcome(lambda: build(bad))[0] is NotHermitianError

    def test_rejects_stacks_that_are_not_n_by_d_by_d(self):
        for shape in [(0, 2, 2), (2, 2, 3), (2, 2)]:
            with pytest.raises(ValidationError, match=r"\(n, d, d\) operator stack"):
                BitPovms(np.zeros(shape))
