import numpy as np
import pytest

from qraclab.bits import bit_at
from qraclab.decoding import (
    HammingReport,
    expected_hamming_exact,
    identification_bound_check,
)
from qraclab.errors import LabelMismatchError, ValidationError
from qraclab.linalg import Povm
from qraclab.pgm import build_pgm
from qraclab.qrac import (
    P_STANDARD,
    Ensemble,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
)


@pytest.fixture(scope="module")
def standard():
    q = build_standard_2to1()
    e = Ensemble.uniform(q)
    return q, e, build_pgm(e, full_table=True)


class TestExpectedHamming:
    def test_standard_attains_bound_exactly(self, standard):
        q, e, pg = standard
        report = expected_hamming_exact(q, e, pg)
        assert report.expected_dh == pytest.approx(0.5, abs=1e-12)
        assert report.bound == pytest.approx(2 * P_STANDARD * (1 - P_STANDARD) * 2, abs=1e-12)
        assert report.bound == pytest.approx(0.5, abs=1e-12)
        assert report.satisfied
        np.testing.assert_allclose(report.per_bit_error, [0.25, 0.25], atol=1e-12)
        np.testing.assert_allclose(report.per_x_expected_dh, np.full(4, 0.5), atol=1e-12)

    def test_identity_is_exact(self):
        q = build_identity_encoding(3)
        e = Ensemble.uniform(q)
        report = expected_hamming_exact(q, e, build_pgm(e))
        assert report.expected_dh == pytest.approx(0.0, abs=1e-12)
        assert report.satisfied

    def test_tensor_cube_scales_linearly(self):
        q = build_tensor_power(build_standard_2to1(), 3)
        e = Ensemble.uniform(q)
        report = expected_hamming_exact(q, e, build_pgm(e))
        assert report.expected_dh == pytest.approx(1.5, abs=1e-10)
        assert report.bound == pytest.approx(1.5, abs=1e-12)

    def test_expected_is_prior_weighted_per_x(self, standard):
        q, e, pg = standard
        report = expected_hamming_exact(q, e, pg)
        assert report.expected_dh == pytest.approx(e.prior @ report.per_x_expected_dh)
        assert report.expected_dh == pytest.approx(report.per_bit_error.sum())

    def test_full_povm_path_matches_marginal_path(self, standard):
        q, e, pg = standard
        via_bundle = expected_hamming_exact(q, e, pg)
        via_table = expected_hamming_exact(q, e, pg.full)
        np.testing.assert_allclose(via_table.per_bit_error, via_bundle.per_bit_error, atol=1e-10)
        assert via_table.expected_dh == pytest.approx(via_bundle.expected_dh, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_codes_meet_bound(self, seed):
        q = build_random_qrac(2, 2, seed=seed)
        rng = np.random.default_rng(seed)
        e = Ensemble.from_qrac(q, rng.dirichlet(np.ones(4)))
        report = expected_hamming_exact(q, e, build_pgm(e))
        assert report.expected_dh <= report.bound + 1e-8

    def test_raw_prior_array_accepted(self, standard):
        q, e, pg = standard
        report = expected_hamming_exact(q, np.full(4, 0.25), pg)
        assert report.expected_dh == pytest.approx(0.5, abs=1e-12)

    def test_rejects_wrong_prior_length(self, standard):
        q, _, pg = standard
        with pytest.raises(ValidationError):
            expected_hamming_exact(q, np.full(8, 0.125), pg)

    def test_rejects_bad_labels(self, standard):
        q, e, _ = standard
        povm = Povm((np.eye(2),), outcomes=(7,))
        with pytest.raises(LabelMismatchError):
            expected_hamming_exact(q, e, povm)


class TestIdentificationBound:
    def test_standard_attains_two(self, standard):
        q, _, pg = standard
        check = identification_bound_check(q, pg)
        assert check.lhs == pytest.approx(2.0, abs=1e-9)
        assert check.rhs == 2.0
        assert check.ok

    def test_identity_attains_dimension(self):
        q = build_identity_encoding(3)
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        check = identification_bound_check(q, pg)
        assert check.lhs == pytest.approx(8.0, abs=1e-9)
        assert check.ok

    @pytest.mark.parametrize("seed", range(10))
    def test_random_codes_stay_below_cap(self, seed):
        q = build_random_qrac(3, 1, seed=seed)
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        check = identification_bound_check(q, pg)
        assert check.lhs <= 2.0 + 1e-8

    def test_random_povm_also_bounded(self, standard):
        # the bound holds for any measurement, not only the square-root one
        q, _, _ = standard
        rng = np.random.default_rng(5)
        g = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
        parts = [m @ m.conj().T for m in g]
        total = sum(parts)
        from qraclab.linalg import eig_hermitian

        vals, vecs = eig_hermitian(total)
        inv_sqrt = (vecs * vals**-0.5) @ vecs.conj().T
        elems = tuple(inv_sqrt @ p @ inv_sqrt for p in parts)
        povm = Povm(elems, outcomes=(0, 1, 2, 3))
        assert identification_bound_check(q, povm).ok


def test_report_is_frozen(standard):
    q, e, pg = standard
    report = expected_hamming_exact(q, e, pg)
    assert isinstance(report, HammingReport)
    with pytest.raises(AttributeError):
        report.expected_dh = 0.0


def test_bit_errors_respect_bit_semantics(standard):
    # decoding bit 1 of x=10 with the computational-basis marginal should
    # succeed with the standard probability
    q, e, pg = standard
    f0 = pg.marginals[0].elements[0]
    p_report0 = np.einsum("ij,ji->", f0, q.encoder[0b10].mat).real
    assert bit_at(0b10, 1, 2) == 1
    assert 1 - p_report0 == pytest.approx(0.75, abs=1e-12)
