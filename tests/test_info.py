import math

import numpy as np
import pytest

from qraclab.errors import BadSplitError, DomainError, ValidationError
from qraclab.info import (
    ClassicalChannel,
    MaxCapacityResult,
    binary_entropy,
    distance_conditioning_check,
    max_channel_capacity,
    max_channel_capacity_lp,
    max_relative_entropy,
    qubit_lower_bound,
)


def random_channel(rng, n_in=None, n_out=None):
    n_in = n_in or int(rng.integers(2, 17))
    n_out = n_out or int(rng.integers(2, 17))
    table = rng.dirichlet(np.full(n_out, rng.uniform(0.3, 2.0)), size=n_in)
    # sprinkle exact zeros to exercise support handling
    if rng.random() < 0.4:
        mask = rng.random(size=table.shape) < 0.2
        table = np.where(mask, 0.0, table)
        table /= table.sum(axis=1, keepdims=True)
    return ClassicalChannel(table)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_frozen_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-13)

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-13)

    def test_symmetry(self):
        for q in (0.1, 0.3, 0.42):
            assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)


class TestMaxRelativeEntropy:
    def test_factor_two(self):
        assert max_relative_entropy([0.5, 0.5], [0.25, 0.75]) == pytest.approx(1.0)

    def test_equal_distributions(self):
        assert max_relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_support_violation_is_inf(self):
        assert max_relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            assert max_relative_entropy(p, q) >= -1e-12

    def test_monotone_under_postprocessing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, q = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
            post = random_channel(rng, 6, 4)
            before = max_relative_entropy(p, q)
            after = max_relative_entropy(p @ post.table, q @ post.table)
            assert after <= before + 1e-9


class TestChannel:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            ClassicalChannel(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValidationError):
            ClassicalChannel(np.array([[1.1, -0.1], [0.5, 0.5]]))


class TestMaxCapacity:
    def test_identity_channel(self):
        res = max_channel_capacity(ClassicalChannel(np.eye(4)))
        assert res.value == pytest.approx(2.0)
        np.testing.assert_allclose(res.sigma, np.full(4, 0.25))

    def test_constant_channel_zero(self):
        res = max_channel_capacity(ClassicalChannel(np.tile([0.3, 0.7], (5, 1))))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.sigma, [0.3, 0.7])

    def test_worked_binary_example(self):
        ch = ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        res = max_channel_capacity(ch)
        assert res.value == pytest.approx(math.log2(1.7), abs=1e-12)
        assert res.value == pytest.approx(0.7655347463629771, abs=1e-12)

    def test_sigma_attains_value(self):
        # D_max(E(x) || sigma) <= value for every row, with equality at the max
        rng = np.random.default_rng(3)
        for _ in range(10):
            ch = random_channel(rng)
            res = max_channel_capacity(ch)
            ratios = [max_relative_entropy(ch.row(x), res.sigma) for x in range(ch.in_size)]
            assert max(ratios) == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_lp_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        ch = random_channel(rng)
        assert max_channel_capacity(ch).value == pytest.approx(
            max_channel_capacity_lp(ch), abs=1e-9
        )

    def test_lp_oracle_on_worked_example(self):
        ch = ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert max_channel_capacity_lp(ch) == pytest.approx(math.log2(1.7), abs=1e-9)

    def test_monotone_under_postprocessing(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            ch = random_channel(rng, 5, 6)
            post = random_channel(rng, 6, 3)
            before = max_channel_capacity(ch).value
            after = max_channel_capacity(ClassicalChannel(ch.table @ post.table)).value
            # post-processing never raises the capacity, which never exceeds
            # the log of the intermediate alphabet size
            assert after <= before + 1e-9
            assert before <= math.log2(ch.out_size) + 1e-9

    def test_constant_postprocessing_kills_capacity(self):
        ch = ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        post = np.full((2, 2), 0.5)
        composed = ClassicalChannel(ch.table @ post)
        assert max_channel_capacity(composed).value == pytest.approx(0.0, abs=1e-12)


class TestQubitLowerBound:
    def test_frozen_example_p85(self):
        b = qubit_lower_bound(100, 0.85)
        assert b.from_hamming == pytest.approx(11.431070534479910, abs=1e-9)
        assert b.from_entropy == pytest.approx(39.015969528359958, abs=1e-9)

    def test_standard_code_parameters(self):
        b = qubit_lower_bound(2, np.cos(np.pi / 8) ** 2)
        assert b.from_hamming == pytest.approx(-1.2075187496394219, abs=1e-12)
        assert b.from_entropy == pytest.approx(0.7982479266142878, abs=1e-12)

    def test_perfect_success(self):
        b = qubit_lower_bound(4, 1.0)
        assert b.from_hamming == pytest.approx(4 - math.log2(5), abs=1e-12)
        assert b.from_entropy == pytest.approx(4.0)

    def test_entropy_bound_dominates_asymptotically(self):
        # 1 - H(p) >= 1 - H(2p(1-p)) for p in (1/2, 1]
        for p in (0.6, 0.75, 0.9, 0.99):
            b = qubit_lower_bound(50, p)
            assert b.from_entropy >= b.from_hamming

    def test_monotone_in_p(self):
        vals = [qubit_lower_bound(20, p).from_hamming for p in (0.55, 0.7, 0.85, 0.99)]
        assert vals == sorted(vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit_lower_bound(4, 0.5)
        with pytest.raises(DomainError):
            qubit_lower_bound(4, 1.1)


class TestDistanceConditioning:
    def test_standard_code_chain(self):
        from qraclab.pgm import build_pgm
        from qraclab.qrac import Ensemble, build_standard_2to1

        q = build_standard_2to1()
        e = Ensemble.uniform(q)
        pg = build_pgm(e, full_table=True)
        elements = np.stack(pg.full.elements)
        joint = np.array(
            [
                e.prior[x] * np.einsum("kij,ji->k", elements, q.encoder[x].mat).real
                for x in range(4)
            ]
        )
        report = distance_conditioning_check(joint, n=2)
        assert report.h_x_given_y <= report.h_x_given_yd + report.side_information + 1e-9
        assert report.side_information == pytest.approx(math.log2(3))
        assert 0 <= report.h_x_given_yd <= report.h_x_given_y

    def test_perfect_decoder_all_zero(self):
        joint = np.eye(4) / 4
        report = distance_conditioning_check(joint, n=2)
        assert report.h_x_given_y == pytest.approx(0.0, abs=1e-12)
        assert report.h_x_given_yd == pytest.approx(0.0, abs=1e-12)

    def test_rejects_malformed_joint(self):
        with pytest.raises(ValidationError):
            distance_conditioning_check(np.full((4, 4), 0.1), n=2)
        with pytest.raises(BadSplitError):
            distance_conditioning_check(np.eye(4) / 4, n=3)


def test_capacity_result_type():
    res = max_channel_capacity(ClassicalChannel(np.eye(2)))
    assert isinstance(res, MaxCapacityResult)
    assert res.sigma.sum() == pytest.approx(1.0)
