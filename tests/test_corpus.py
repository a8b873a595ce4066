"""Checks for the seeded corpus generators used by the batch suites."""

import numpy as np
import pytest

from qraclab.corpus import (
    DEFAULT_P_MIN,
    random_channels,
    random_priors,
    random_qrac_corpus,
    random_two_state_ensembles,
    reference_corpus,
)
from qraclab.qrac import P_STANDARD, validate_qrac


def test_random_corpus_is_deterministic():
    a = random_qrac_corpus(8, seed=3)
    b = random_qrac_corpus(8, seed=3)
    assert len(a) == len(b) == 8
    for qa, qb in zip(a, b):
        assert (qa.n, qa.m) == (qb.n, qb.m)
        np.testing.assert_allclose(qa.claimed_p, qb.claimed_p, rtol=0, atol=0)
        for sa, sb in zip(qa.encoder, qb.encoder):
            np.testing.assert_allclose(sa.mat, sb.mat, rtol=0, atol=0)


def test_random_corpus_respects_filter_and_ranges():
    codes = random_qrac_corpus(30, seed=1, n_max=6, m_max=3)
    for q in codes:
        assert 1 <= q.n <= 6
        assert 1 <= q.m <= 3
        assert q.claimed_p > DEFAULT_P_MIN
        np.testing.assert_allclose(validate_qrac(q), q.claimed_p, rtol=0, atol=1e-9)


def test_different_seeds_differ():
    a = random_qrac_corpus(6, seed=0)
    b = random_qrac_corpus(6, seed=1)
    assert any(
        (qa.n, qa.m) != (qb.n, qb.m) or abs(qa.claimed_p - qb.claimed_p) > 1e-12
        for qa, qb in zip(a, b)
    )


def test_reference_corpus_prefix():
    codes = reference_corpus(5, seed=2)
    assert len(codes) == 9
    assert (codes[0].n, codes[0].m) == (2, 1)
    np.testing.assert_allclose(codes[0].claimed_p, P_STANDARD, rtol=0, atol=1e-12)
    for k, q in zip((2, 3, 4), codes[1:4]):
        assert (q.n, q.m) == (2 * k, k)
    assert all(q.claimed_p > DEFAULT_P_MIN for q in codes[4:])


def test_random_priors_shape_and_mass():
    priors = random_priors(8, 5, seed=4)
    assert len(priors) == 5
    for prior in priors:
        assert prior.shape == (8,)
        assert prior.min() >= 0
        np.testing.assert_allclose(prior.sum(), 1.0, rtol=0, atol=1e-12)


def test_random_channels_are_valid():
    channels = random_channels(12, seed=6)
    assert len(channels) == 12
    for ch in channels:
        assert 2 <= ch.in_size <= 16
        assert 2 <= ch.out_size <= 16
        np.testing.assert_allclose(ch.table.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_two_state_ensembles():
    batches = [random_two_state_ensembles(4, seed=s) for s in (0, 0, 1)]
    for ens in batches[0]:
        assert len(ens.states) == 2
        np.testing.assert_allclose(ens.prior.sum(), 1.0, rtol=0, atol=1e-12)
    first = batches[0][0]
    np.testing.assert_allclose(
        first.states[0].mat, batches[1][0].states[0].mat, rtol=0, atol=0
    )
    with pytest.raises(AssertionError):
        np.testing.assert_allclose(
            first.states[0].mat, batches[2][0].states[0].mat, rtol=0, atol=0
        )
