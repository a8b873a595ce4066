from collections import Counter

import numpy as np
import pytest

from qraclab import pgm, qrac
from qraclab.bits import bit_at
from qraclab.decoding import (
    HammingReport,
    expected_hamming_exact,
    identification_bound_check,
)
from qraclab.errors import LabelMismatchError, ValidationError
from qraclab.linalg import GramPovm, GramStates, Povm, _hermitize, _sqrt_pinv_with_support
from qraclab.minimax import evaluate_worstcase
from qraclab.pgm import SANDWICH_MAX_CONDITION, build_pgm, per_bit_success
from qraclab.qrac import (
    P_STANDARD,
    Ensemble,
    bit_error_table,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
)
from references import count_calls


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
        np.testing.assert_allclose(report.per_bit_error, [0.25, 0.25], atol=1e-12)

    def test_identity_is_exact(self):
        q = build_identity_encoding(3)
        e = Ensemble.uniform(q)
        report = expected_hamming_exact(q, e, build_pgm(e))
        assert report.expected_dh == pytest.approx(0.0, abs=1e-12)
        assert report.expected_dh <= report.bound

    def test_tensor_cube_scales_linearly(self):
        q = build_tensor_power(build_standard_2to1(), 3)
        e = Ensemble.uniform(q)
        report = expected_hamming_exact(q, e, build_pgm(e))
        assert report.expected_dh == pytest.approx(1.5, abs=1e-10)
        assert report.bound == pytest.approx(1.5, abs=1e-12)

    def test_expected_is_prior_weighted_per_x(self):
        q = build_random_qrac(3, 2, seed=29)
        e = Ensemble(np.random.default_rng(3).dirichlet(np.ones(8)), q.encoder)
        pg = build_pgm(e)
        report = expected_hamming_exact(q, e, pg)
        per_x = bit_error_table(pg.marginals.f0s, q.encoder).sum(axis=0)
        assert report.expected_dh == pytest.approx(e.prior @ per_x, abs=1e-12)
        assert report.expected_dh == pytest.approx(report.per_bit_error.sum())

    def test_full_povm_path_matches_marginal_path(self, standard):
        # the full table, summed into marginals by the dense reference, gives
        # the bundle's expected distance
        q, e, pg = standard
        via_bundle = expected_hamming_exact(q, e, pg)
        _, _, per_x = evaluate_worstcase(q, Povm(np.stack(pg.full.elements)))
        assert e.prior @ per_x == pytest.approx(via_bundle.expected_dh, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_codes_meet_bound(self, seed):
        q = build_random_qrac(2, 2, seed=seed)
        rng = np.random.default_rng(seed)
        e = Ensemble(rng.dirichlet(np.ones(4)), q.encoder)
        report = expected_hamming_exact(q, e, build_pgm(e))
        assert report.expected_dh <= report.bound + 1e-8

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 4), (6, 3), (8, 4)])
    def test_closed_form_is_the_trace_table(self, shape):
        """per_bit[i] = P(x_i = 0) + Re Tr(F_i (T - 2 Z_i)), read from the
        ensemble's bit sums, is the trace table's prior-weighted error, and
        ``per_bit_success`` its complement, under flat and spiky Dirichlet
        priors and a prior with no mass on x_1 = 1.  alpha = 0.01 leaves
        the average ill-conditioned: the build whitens, and the evaluator
        still reads the unwhitened sums."""
        whitened = 0
        n = shape[0]
        for seed in range(4):
            q = build_random_qrac(*shape, seed=seed)
            rng = np.random.default_rng(seed)
            priors = [rng.dirichlet(np.full(2**n, alpha)) for alpha in (1.0, 0.1, 0.01)]
            half = 2 ** (n - 1)
            priors.append(np.concatenate([rng.dirichlet(np.ones(half)), np.zeros(half)]))
            for prior in priors:
                e = Ensemble(prior, q.encoder)
                pg = build_pgm(e)
                report = expected_hamming_exact(q, e, pg)
                want = bit_error_table(pg.marginals.f0s, q.encoder) @ prior
                np.testing.assert_allclose(report.per_bit_error, want, rtol=0, atol=1e-12)
                success = [per_bit_success(e, pg, i) for i in range(1, n + 1)]
                if not prior[half:].any():
                    want[0] = 0.0  # bit 1 is known: its success is reported as 1
                np.testing.assert_allclose(success, 1.0 - want, rtol=0, atol=1e-12)
                _, _, total = e.weighted
                condition = _sqrt_pinv_with_support(_hermitize(total))[2]
                whitened += condition > SANDWICH_MAX_CONDITION
        assert whitened

    def test_one_bit_sums_pass_and_no_trace_table(self, monkeypatch):
        """The build and the evaluator share the ensemble's bit sums: one
        ``bit_sums`` call in all, and no pass over the 2^n states."""
        calls = Counter()
        for module in (qrac, pgm):
            count_calls(monkeypatch, module, "bit_sums", calls)
        count_calls(monkeypatch, qrac, "trace_table", calls)
        q = build_random_qrac(6, 3, seed=2)
        e = Ensemble.uniform(q)
        calls.clear()
        expected_hamming_exact(q, e, build_pgm(e))
        assert calls == Counter(bit_sums=1)

    def test_rejects_a_foreign_ensemble(self):
        """A bundle and ensemble of another code, of the same size, gave
        1.553 against this code's bound 1.439: a breach that is not one."""
        q = build_random_qrac(3, 2, seed=29)
        foreign = Ensemble.uniform(build_random_qrac(3, 2, seed=54))
        with pytest.raises(ValidationError, match="differ from the code's encoder"):
            expected_hamming_exact(q, foreign, build_pgm(foreign))
        # the same states in a new container are the code's own
        own = Ensemble.uniform(q)
        twin = Ensemble(own.prior, GramStates(q.encoder.factors.copy()))
        want = expected_hamming_exact(q, own, build_pgm(own)).expected_dh
        assert expected_hamming_exact(q, twin, build_pgm(twin)).expected_dh == want

    def test_rejects_wrong_prior_length(self, standard):
        q, _, pg = standard
        wide = Ensemble.uniform(build_random_qrac(3, 1, seed=0))
        with pytest.raises(ValidationError, match="prior must have length 4"):
            expected_hamming_exact(q, wide, pg)

    def test_rejects_bad_labels(self, standard):
        # a bundle built for another n labels its outcomes by other strings
        q, e, _ = standard
        other = build_pgm(Ensemble.uniform(build_random_qrac(1, 1, seed=0)))
        with pytest.raises(LabelMismatchError, match="built for n = 1, code has 2"):
            expected_hamming_exact(q, e, other)


class TestIdentificationBound:
    def test_standard_attains_two(self, standard):
        q, _, pg = standard
        check = identification_bound_check(q, pg.full)
        assert check.lhs == pytest.approx(2.0, abs=1e-9)
        assert check.rhs == 2.0
        assert check.ok

    def test_identity_attains_dimension(self):
        q = build_identity_encoding(3)
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        check = identification_bound_check(q, pg.full)
        assert check.lhs == pytest.approx(8.0, abs=1e-9)
        assert check.ok

    @pytest.mark.parametrize("seed", range(10))
    def test_random_codes_stay_below_cap(self, seed):
        q = build_random_qrac(3, 1, seed=seed)
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        check = identification_bound_check(q, pg.full)
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
        # element k is (S g_k)(S g_k)^dag = S p_k S, held by its factor S g_k
        povm = GramPovm(np.stack([inv_sqrt @ m for m in g]), np.zeros((2, 0)))
        check = identification_bound_check(q, povm)
        want = sum(
            np.trace(inv_sqrt @ p @ inv_sqrt @ q.encoder[k].mat).real for k, p in enumerate(parts)
        )
        assert check.lhs == pytest.approx(want, abs=1e-12)
        assert check.ok


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
