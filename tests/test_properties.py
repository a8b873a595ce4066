"""Pipeline properties over Haar-random codes with n <= 4 and m <= 3, kept by
the corpus rule (worst-case p above DEFAULT_P_MIN): the channels of a
codebook, its audited success against a per-shift rebuild, and the
per-input Hamming error of the code's own decoders.  The square-root
measurement is checked on Haar (4, 3) and (5, 4) codes under Dirichlet
priors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qraclab.bits import bit_column
from qraclab.compression import build_scheme
from qraclab.corpus import random_qrac_corpus
from qraclab.conversion import SharedShift, build_rac, effective_channel, validate_rac
from qraclab.decoding import expected_hamming_exact
from qraclab.info import max_channel_capacity
from qraclab.linalg import bit_sums
from qraclab.pgm import PgmBundle, build_pgm
from qraclab.qrac import (
    Ensemble,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    success_table,
)

CODE_SEEDS = st.integers(min_value=0, max_value=2**16)
ETAS = st.sampled_from([0.3, 0.4])


def corpus_code(seed):
    return random_qrac_corpus(1, seed, n_max=4, m_max=3)[0]


@given(seed=CODE_SEEDS, eta=ETAS)
@settings(max_examples=8, deadline=None)
def test_shift_channels_are_stochastic_within_capacity(seed, eta):
    q = corpus_code(seed)
    cb = build_rac(q, eta, seed=seed)
    for scheme in cb.schemes:
        table = scheme.channel.table
        assert table.min() >= 0.0
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert max_channel_capacity(scheme.channel).value <= q.m + 1e-9


@given(seed=CODE_SEEDS, eta=ETAS)
@settings(max_examples=8, deadline=None)
def test_codebook_success_stays_above_its_floor(seed, eta):
    q = corpus_code(seed)
    cb = build_rac(q, eta, seed=seed)
    assert validate_rac(cb, q).min_success >= cb.success_floor


SMALL_CODES = st.one_of(
    CODE_SEEDS.map(corpus_code),
    st.integers(min_value=1, max_value=4).map(build_identity_encoding),
    st.just(build_standard_2to1()),
)


@given(q=SMALL_CODES, eta=st.sampled_from([0.2, 0.3]), seed=CODE_SEEDS)
@settings(max_examples=8, deadline=None)
def test_codebook_matches_a_per_shift_rebuild(q, eta, seed):
    # the reference builds every shift's channel and scheme afresh; the
    # codebook sums z and c_max once, in the base order, hence the ulps
    cb = build_rac(q, eta, seed=seed)
    pgm = build_pgm(Ensemble.uniform(q), full_table=True)
    n = q.n
    bits = np.stack([bit_column(i, n) for i in range(1, n + 1)])
    same = bits[:, :, None] == bits[:, None, :]  # (i, x, y)
    expected = np.zeros((n, 2**n))
    for (r, d), scheme in zip(cb.s_set, cb.schemes):
        ref = build_scheme(effective_channel(q, SharedShift(int(r), int(d), n), pgm), eta / 2)
        assert np.array_equal(scheme.channel.table, ref.channel.table)
        assert (scheme.n_cap, scheme.index_bits) == (ref.n_cap, ref.index_bits)
        np.testing.assert_array_max_ulp(scheme.z, ref.z, maxulp=4)
        np.testing.assert_array_max_ulp(scheme.c_max, ref.c_max, maxulp=4)
        fail = (1.0 - 1.0 / ref.ratio) ** ref.n_cap
        right = np.einsum("xy,ixy->ix", ref.channel.table, same)
        expected += (1.0 - fail) * right + 0.5 * fail
    expected /= cb.size_s
    np.testing.assert_allclose(validate_rac(cb, q).table, expected, rtol=0, atol=1e-12)


@given(seed=CODE_SEEDS)
@settings(max_examples=10, deadline=None)
def test_decoder_hamming_error_is_the_success_table_complement(seed):
    q = corpus_code(seed)
    own = PgmBundle(q.n, q.decoders, None)
    ens = Ensemble.uniform(q)
    report = expected_hamming_exact(q, ens, own)
    want = (1.0 - success_table(q)) @ ens.prior
    np.testing.assert_allclose(report.per_bit_error, want, rtol=0, atol=1e-12)


@given(
    seed=CODE_SEEDS,
    shape=st.sampled_from([(4, 3), (5, 4)]),
    alpha=st.sampled_from([0.01, 0.1, 1.0]),
)
@settings(max_examples=30, deadline=None)
def test_pgm_under_dirichlet_priors_passes_its_checks(seed, shape, alpha):
    """Every build passes its identity-sum check, and its marginals are the
    sums of its full table to 1e-12.  Spiky priors (alpha 0.01) leave the
    average ill-conditioned and take the whitening path; flat ones take the
    sandwich path.  The PGM's checks do not depend on the code's worst-case
    p, so the codes are drawn without the corpus floor."""
    q = build_random_qrac(*shape, seed=seed)
    prior = np.random.default_rng(seed).dirichlet(np.full(2**q.n, alpha))
    pg = build_pgm(Ensemble(prior, q.encoder), full_table=True)
    table_f0s = bit_sums(pg.full.factors)[0] + pg.full.extra  # extra sits on the string 0...0
    np.testing.assert_allclose(pg.marginals.f0s, table_f0s, rtol=0, atol=1e-12)
