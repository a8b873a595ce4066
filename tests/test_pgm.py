import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qraclab import linalg, pgm, qrac
from qraclab.bits import bit_columns
from qraclab.errors import DomainError, IndexOutOfRangeError, ValidationError
from qraclab.linalg import (
    SUPPORT_CUTOFF,
    TOL_POVM,
    TOL_PSD,
    BitPovms,
    DensityMatrix,
    _hermitize,
    bit_sums,
    eig_hermitian,
)
from qraclab.decoding import identification_bound_check
from qraclab.pgm import (
    PgmBundle,
    build_pgm,
    helstrom_pmax,
    per_bit_success,
    pgm_lower_bound,
    success_prob_full,
)
from qraclab.qrac import (
    P_STANDARD,
    Ensemble,
    Qrac,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
)
from references import random_density

C = np.cos(np.pi / 8)
S = np.sin(np.pi / 8)


def two_state_ensemble(seed, dim):
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(0.05, 0.95)
    states = (random_density(rng, dim, pure=bool(rng.integers(2))), random_density(rng, dim))
    return Ensemble(np.array([p0, 1 - p0]), states)


def bit_ensemble(q, i):
    """Uniform-prior mixture ensemble for bit i of a code."""
    from qraclab.bits import bit_column

    col = bit_column(i, q.n)
    stack = linalg.gram_dense(q.encoder.factors)
    rho0 = DensityMatrix(stack[col == 0].mean(axis=0))
    rho1 = DensityMatrix(stack[col == 1].mean(axis=0))
    return Ensemble(np.array([0.5, 0.5]), (rho0, rho1))


class TestBuildPgm:
    def test_standard_code_elements_are_half_states(self):
        q = build_standard_2to1()
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        for y in range(4):
            np.testing.assert_allclose(
                pg.full.elements[y], q.encoder[y].mat / 2, atol=1e-12
            )

    def test_identity_encoding_gives_basis_measurement(self):
        q = build_identity_encoding(2)
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        for y in range(4):
            expect = np.zeros((4, 4))
            expect[y, y] = 1.0
            np.testing.assert_allclose(pg.full.elements[y], expect, atol=1e-12)

    def test_point_prior_support_completion(self):
        # all mass on one pure state: its raw outcome is the support
        # projector and the off-support remainder is folded into outcome 0
        q = build_standard_2to1()
        e = Ensemble(np.array([1.0, 0.0, 0.0, 0.0]), q.encoder)
        pg = build_pgm(e, full_table=True)
        assert np.linalg.matrix_rank(q.encoder[0].mat, tol=1e-8) == 1
        np.testing.assert_allclose(pg.full.elements[0], np.eye(2), atol=1e-9)
        for y in range(1, 4):
            np.testing.assert_allclose(pg.full.elements[y], np.zeros((2, 2)), atol=1e-9)

    def test_repeated_state_raw_outcome_is_scaled_projector(self):
        # two copies of the same pure state: each raw sandwich is half the
        # support projector, completion tops up outcome 0
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        e = Ensemble(np.array([0.5, 0.5]), (rho, rho))
        pg = build_pgm(e, full_table=True)
        np.testing.assert_allclose(
            pg.full.elements[1], np.diag([0.5, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            pg.full.elements[0], np.diag([0.5, 1.0]), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_marginals_match_full_table_sums(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        states = tuple(random_density(rng, 4, pure=bool(rng.integers(2))) for _ in range(2**n))
        prior = rng.dirichlet(np.ones(2**n))
        e = Ensemble(prior, states)
        pg = build_pgm(e, full_table=True)
        from qraclab.bits import bit_column

        for i in range(1, n + 1):
            col = bit_column(i, n)
            for b in (0, 1):
                direct = pg.marginals[i - 1].elements[b]
                summed = sum(pg.full.elements[y] for y in range(2**n) if col[y] == b)
                np.testing.assert_allclose(direct, summed, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_bit_pgm_identity(self, seed):
        # the PGM of the induced two-state bit ensemble equals the bit
        # marginals of the full-ensemble PGM
        q = build_standard_2to1() if seed == 0 else None
        if q is None:
            from qraclab.qrac import build_random_qrac

            q = build_random_qrac(2, 2, seed=seed)
        e = Ensemble.uniform(q)
        pg = build_pgm(e)
        for i in (1, 2):
            direct = build_pgm(bit_ensemble(q, i))
            for b in (0, 1):
                np.testing.assert_allclose(
                    pg.marginals[i - 1].elements[b],
                    direct.marginals[0].elements[b],
                    atol=1e-8,
                )


class TestSuccessProbs:
    def test_standard_full_success_half(self):
        q = build_standard_2to1()
        e = Ensemble.uniform(q)
        pg = build_pgm(e, full_table=True)
        assert success_prob_full(e, pg) == pytest.approx(0.5, abs=1e-12)

    def test_standard_per_bit_three_quarters(self):
        q = build_standard_2to1()
        e = Ensemble.uniform(q)
        pg = build_pgm(e)
        assert per_bit_success(e, pg, 1) == pytest.approx(0.75, abs=1e-12)
        assert per_bit_success(e, pg, 2) == pytest.approx(0.75, abs=1e-12)

    def test_identity_perfect(self):
        q = build_identity_encoding(2)
        e = Ensemble.uniform(q)
        pg = build_pgm(e, full_table=True)
        assert success_prob_full(e, pg) == pytest.approx(1.0, abs=1e-12)
        assert per_bit_success(e, pg, 1) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_bit_prior_reports_one(self):
        q = build_standard_2to1()
        # prior supported on {00, 01}: bit 1 is constant
        e = Ensemble(np.array([0.7, 0.3, 0.0, 0.0]), q.encoder)
        pg = build_pgm(e)
        assert per_bit_success(e, pg, 1) == 1.0
        assert per_bit_success(e, pg, 2) < 1.0

    def test_index_out_of_range(self):
        q = build_standard_2to1()
        e = Ensemble.uniform(q)
        pg = build_pgm(e)
        with pytest.raises(IndexOutOfRangeError):
            per_bit_success(e, pg, 3)
        with pytest.raises(IndexOutOfRangeError):
            per_bit_success(e, pg, 0)

    def test_full_table_required(self):
        q = build_standard_2to1()
        e = Ensemble.uniform(q)
        pg = build_pgm(e)
        with pytest.raises(ValidationError):
            success_prob_full(e, pg)


class TestHelstrom:
    def test_orthogonal_states(self):
        assert helstrom_pmax(0.5, np.diag([1.0, 0.0]), 0.5, np.diag([0.0, 1.0])) == pytest.approx(
            1.0
        )

    def test_identical_states_give_max_prior(self):
        rho = np.eye(2) / 2
        assert helstrom_pmax(0.3, rho, 0.7, rho) == pytest.approx(0.7, abs=1e-12)

    def test_standard_bit_ensemble_value(self):
        q = build_standard_2to1()
        e = bit_ensemble(q, 1)
        got = helstrom_pmax(0.5, e.states[0].mat, 0.5, e.states[1].mat)
        assert got == pytest.approx(P_STANDARD, abs=1e-12)

    def test_rejects_bad_priors(self):
        with pytest.raises(DomainError):
            helstrom_pmax(0.6, np.eye(2) / 2, 0.6, np.eye(2) / 2)
        with pytest.raises(DomainError):
            helstrom_pmax(np.nan, np.eye(2) / 2, 0.5, np.eye(2) / 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_measurement_attains_value(self, seed):
        e = two_state_ensemble(seed, dim=4)
        p0, p1 = e.prior
        rho0, rho1 = e.states[0].mat, e.states[1].mat
        # outcome 0 projects onto the positive eigenspace of p0 rho0 - p1 rho1
        proj = linalg.positive_projectors((p0 * rho0 - p1 * rho1)[None])[0]
        achieved = (
            p0 * np.einsum("ij,ji->", proj, rho0).real
            + p1 * np.einsum("ij,ji->", np.eye(len(proj)) - proj, rho1).real
        )
        assert achieved == pytest.approx(helstrom_pmax(p0, rho0, p1, rho1), abs=1e-10)

    @pytest.mark.parametrize("seed", range(15))
    def test_no_random_measurement_beats_it(self, seed):
        # independent check of optimality: random two-outcome measurements
        # never exceed the closed-form value
        rng = np.random.default_rng(1000 + seed)
        e = two_state_ensemble(seed, dim=3)
        p0, p1 = e.prior
        rho0, rho1 = e.states[0].mat, e.states[1].mat
        best = helstrom_pmax(p0, rho0, p1, rho1)
        for _ in range(200):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = g @ g.conj().T
            m0 = h / (np.linalg.eigvalsh(h).max() + rng.uniform(0.01, 2.0))
            achieved = (
                p0 * np.einsum("ij,ji->", m0, rho0).real
                + p1 * np.einsum("ij,ji->", np.eye(3) - m0, rho1).real
            )
            assert achieved <= best + 1e-10

    @pytest.mark.parametrize("n, m, seed", [(3, 1, 0), (4, 2, 1), (5, 4, 2)])
    def test_random_code_decoders_match_a_per_bit_loop(self, n, m, seed):
        """A random code's projectors, from one batched ``eigh``, equal a
        per-bit ``eig_hermitian`` loop bit for bit, on the differences (Z_i - T/2) 2^(1-n) = (rho_0 - rho_1) / 2
        of the bit's zero-sum Z_i and the total T from ``bit_sums``."""
        q = build_random_qrac(n, m, seed)
        zeros, total = bit_sums(q.encoder.factors)
        for i in range(n):
            delta = (zeros[i] - total / 2) * 2.0 ** (1 - n)
            vals, vecs = eig_hermitian(delta)
            pos = vecs[:, vals > 0]
            np.testing.assert_array_equal(q.decoders.f0s[i], pos @ pos.conj().T)


class TestLowerBound:
    def test_worked_false_case(self):
        assert pgm_lower_bound(0.9) == pytest.approx(0.82, abs=1e-15)
        assert 0.81 < pgm_lower_bound(0.9)

    def test_standard_bit_ensemble_attains_equality(self):
        # p_max = cos^2(pi/8) gives p_max^2 + (1-p_max)^2 = 3/4 exactly
        q = build_standard_2to1()
        e = bit_ensemble(q, 1)
        pg = build_pgm(e, full_table=True)
        p_pgm = success_prob_full(e, pg)
        assert p_pgm == pytest.approx(0.75, abs=1e-12)
        assert p_pgm == pytest.approx(pgm_lower_bound(P_STANDARD), abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_two_state_bound_holds(self, seed):
        dim = 2 if seed % 2 else 4
        e = two_state_ensemble(seed, dim)
        pg = build_pgm(e, full_table=True)
        p_pgm = success_prob_full(e, pg)
        p_max = helstrom_pmax(e.prior[0], e.states[0].mat, e.prior[1], e.states[1].mat)
        assert p_pgm >= pgm_lower_bound(p_max) - 1e-8
        assert p_pgm <= p_max + 1e-9  # square-root measurement never beats optimal


def test_bundle_is_dataclass_with_marginals():
    q = build_standard_2to1()
    pg = build_pgm(Ensemble.uniform(q))
    assert isinstance(pg, PgmBundle)
    assert pg.full is None and len(pg.marginals) == 2
    assert len(pg.marginals[0]) == 2


# ---------------------------------------------------------------------------
# the factored full table against a dense reference


def dense_pgm_reference(prior, states):
    """Q_y = R (P_y S rho_y S + [y = 0] L) R from eigh alone: S = rho^{-1/2}
    on the support of the average rho, L = I minus the support projector,
    and R the inverse square root of the family total."""
    dim = states.shape[1]
    w, v = np.linalg.eigh(np.einsum("x,xij->ij", prior, states))
    kept = v[:, w >= SUPPORT_CUTOFF * w.max()]
    s = (kept * w[w >= SUPPORT_CUTOFF * w.max()] ** -0.5) @ kept.conj().T
    raw = prior[:, None, None] * (s @ states @ s)
    raw[0] += np.eye(dim) - kept @ kept.conj().T
    wt, vt = np.linalg.eigh(raw.sum(axis=0))
    r = (vt * wt**-0.5) @ vt.conj().T
    return r @ raw @ r


def coin_code(n, states):
    """A code over ``states`` whose decoders flip coins: the full-table
    checks that take a Qrac read only its encoder."""
    coin = BitPovms(np.tile(np.eye(states.dim) / 2, (n, 1, 1)))
    m = int(np.log2(states.dim))
    return Qrac(n, m, states, coin, claimed_p=0.0)


def table_marginals(full):
    """F0_i summed from the full table: the bit sums of its factors, plus
    C C^dag of its leftover on outcome 0, whose string has every bit 0."""
    return bit_sums(full.factors)[0] + full.leftover @ full.leftover.conj().T


@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=2),
    mixed_share=st.floats(min_value=0.0, max_value=1.0),
    zero_share=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_full_pgm_on_mixed_pure_codes(n, m, mixed_share, zero_share, seed):
    rng = np.random.default_rng(seed)
    size, dim = 2**n, 2**m
    states = tuple(
        random_density(rng, dim, pure=bool(rng.random() >= mixed_share)) for _ in range(size)
    )
    prior = rng.dirichlet(np.ones(size))
    prior[rng.random(size) < zero_share] = 0.0
    prior[0] += 1.0 - prior.sum()
    ens = Ensemble(prior, states)
    pg = build_pgm(ens, full_table=True)
    full = np.stack(pg.full.elements)

    assert np.linalg.eigvalsh(full).min() >= -1e-9
    assert np.abs(full.sum(axis=0) - np.eye(dim)).max() <= 1e-9
    dense = np.stack(states)
    reference = dense_pgm_reference(prior, dense)
    np.testing.assert_allclose(full, reference, rtol=0, atol=1e-10)

    table = np.einsum("yab,xba->xy", reference, dense).real
    np.testing.assert_allclose(pg.full.table(ens.states), table, rtol=0, atol=1e-10)
    assert success_prob_full(ens, pg) == pytest.approx(prior @ np.diagonal(table), abs=1e-10)
    ident = identification_bound_check(coin_code(n, ens.states), pg.full)
    assert ident.lhs == pytest.approx(np.trace(table), abs=1e-10)
    cols = bit_columns(n)
    for i, marginal in enumerate(pg.marginals):
        for b in (0, 1):
            table_sum = np.einsum("y,yab->ab", (cols[i] == b).astype(float), reference)
            np.testing.assert_allclose(marginal.elements[b], table_sum, rtol=0, atol=1e-9)
    np.testing.assert_allclose(
        pg.marginals.f0s, table_marginals(pg.full), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "code",
    [lambda: build_random_qrac(10, 5, seed=3), lambda: build_tensor_power(build_standard_2to1(), 5)],
    ids=["haar-10-5", "std-tensor-5"],
)
def test_marginals_are_sums_of_the_full_table(code):
    """The marginals and the full table come from one factor stack, so each
    marginal is the masked sum of the full elements up to rounding."""
    q = code()
    pg = build_pgm(Ensemble.uniform(q), full_table=True)
    np.testing.assert_allclose(
        pg.marginals.f0s, table_marginals(pg.full), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_near_pure_unnormalised_state_is_factored(seed):
    """|psi><psi| + delta |phi><phi| with delta = 1e-10 passes validation
    (trace 1 + 1e-10) and has Tr M^2 = 1 + delta^2, yet it is not a pure
    state: taking it as one would drop delta |phi><phi| from the table."""
    rng = np.random.default_rng(seed)
    n, dim, delta = 2, 4, 1e-10
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    psi, phi = basis[:, 0], basis[:, 1]
    near = np.outer(psi, psi.conj()) + delta * np.outer(phi, phi.conj())
    states = (near,) + tuple(
        random_density(rng, dim, pure=True) for _ in range(2**n - 1)
    )
    ens = Ensemble(np.full(2**n, 2.0**-n), states)
    full = np.stack(build_pgm(ens, full_table=True).full.elements)
    reference = dense_pgm_reference(ens.prior, np.stack(states))
    np.testing.assert_allclose(full, reference, rtol=0, atol=1e-12)


def test_eigen_calls_do_not_grow_with_the_number_of_states(monkeypatch):
    """Validation and the full table run eigvalsh/eigh a number of times
    bounded in n, never once per state, where a per-matrix path makes more
    than 2^n = 1024: the decoders of a tensor power are checked by one
    ``eigvalsh``, a random code's Helstrom projectors take one batched
    ``eigh`` besides, and the full PGM makes 1 ``eigh`` (the average; the
    renormalizer is a closed-form series) and 1 ``eigvalsh`` (the marginal
    stack), with its marginals, the average and its identity sum from one
    ``bit_sums`` call.  The ensemble makes that call, in ``qrac``; ``pgm``
    would make a second one only on the whitened branch."""
    std = build_standard_2to1()
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    kernels = []

    def counted_bit_sums(factors, _original=linalg.bit_sums):
        kernels.append("bit_sums")
        return _original(factors)

    monkeypatch.setattr(qrac, "bit_sums", counted_bit_sums)
    monkeypatch.setattr(pgm, "bit_sums", counted_bit_sums)
    n = 10
    steps = {
        "tensor power": (lambda: build_tensor_power(std, 5), (0, 1)),
        "random code": (lambda: build_random_qrac(n, 5, seed=3), (1, 1)),
    }
    for label, (build, build_calls) in steps.items():
        calls.clear()
        q = build()
        assert (calls.count("eigh"), calls.count("eigvalsh")) == build_calls, (label, calls)
        calls.clear()
        kernels.clear()
        build_pgm(Ensemble.uniform(q), full_table=True)
        assert (calls.count("eigh"), calls.count("eigvalsh")) == (1, 1), (label, calls)
        assert kernels == ["bit_sums"], (label, kernels)


@pytest.mark.parametrize("full_table", [False, True])
def test_identity_sum_is_checked_on_the_bit_sums_total(monkeypatch, full_table):
    """The family's identity sum R S rho S R + C C^dag, with rho the total
    that ``bit_sums`` returns with the zero-sums, is checked on every build:
    a renormalizer off by 1e-6 fails the build, with or without the full
    table."""

    def off_renormalizer(total, _original=pgm._family_renormalizer):
        return (1.0 + 1e-6) * _original(total)

    q = build_random_qrac(3, 2, seed=29)
    build_pgm(Ensemble.uniform(q), full_table=full_table)
    monkeypatch.setattr(pgm, "_family_renormalizer", off_renormalizer)
    with pytest.raises(ValidationError, match="sum to identity"):
        build_pgm(Ensemble.uniform(q), full_table=full_table)


def test_leftover_is_zero_on_a_full_support_average():
    """A Haar (5, 4) code's uniform average has full support: no eigenvector
    lies off it, so the leftover factor has no columns."""
    q = build_random_qrac(5, 4, seed=0)
    full = build_pgm(Ensemble.uniform(q), full_table=True).full
    assert full.factors.shape == (32, 16, 1)
    assert full.leftover.shape == (16, 0)


def test_leftover_is_the_renormalized_projector_off_the_support():
    """The identity encoding with no mass on the strings whose first bit is
    1 has an average of rank 4 in dimension 8: the leftover C has four
    columns, and C C^dag is R (I - P) R, with P the support projector and R
    the renormalizer, and PSD.  The factor stack keeps width 1, and the
    outcome table and its diagonal add C on outcome 0 as the dense elements
    do."""
    q = build_identity_encoding(3)
    prior = np.concatenate([np.random.default_rng(4).dirichlet(np.ones(4)), np.zeros(4)])
    full = build_pgm(Ensemble(prior, q.encoder), full_table=True).full
    assert full.factors.shape == (8, 8, 1)
    assert full.leftover.shape == (8, 4)
    extra = full.leftover @ full.leftover.conj().T
    dense = np.einsum("xab,yba->xy", np.stack([s.mat for s in q.encoder]), np.stack(full.elements)).real
    np.testing.assert_allclose(full.table(q.encoder), dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(full.diagonal(q.encoder), np.diag(dense), rtol=0, atol=1e-12)
    rho = np.diag(prior).astype(complex)
    w, v = np.linalg.eigh(rho)
    kept = v[:, w >= SUPPORT_CUTOFF * w.max()]
    s = (kept * w[w >= SUPPORT_CUTOFF * w.max()] ** -0.5) @ kept.conj().T
    off = np.eye(8) - kept @ kept.conj().T
    wr, vr = np.linalg.eigh(s @ rho @ s + off)
    r = (vr * wr**-0.5) @ vr.conj().T
    np.testing.assert_allclose(extra, r @ off @ r, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(extra).min() >= -TOL_PSD
    assert np.linalg.matrix_rank(extra) == 4


def test_ill_conditioned_average_whitens_the_rows(monkeypatch):
    """A Dirichlet(0.01) prior leaves the average with condition number
    5.8e9 on its support.  Sandwiching its dense sums by S would amplify
    their rounding past the identity-sum check, so the weighted rows are
    whitened first: the build passes its checks, and its marginals are the
    sums of its full table."""
    q = build_random_qrac(4, 3, seed=37)
    ens = Ensemble(np.random.default_rng(1).dirichlet(np.full(16, 0.01)), q.encoder)
    pg = build_pgm(ens, full_table=True)
    np.testing.assert_allclose(
        pg.marginals.f0s, table_marginals(pg.full), rtol=0, atol=1e-12
    )
    monkeypatch.setattr(pgm, "SANDWICH_MAX_CONDITION", np.inf)
    with pytest.raises(ValidationError, match="sum to identity"):
        build_pgm(ens)


def test_renormalizer_matches_the_inverse_square_root_on_a_whitened_build(monkeypatch):
    """On the whitened build of the condition-5.8e9 average above, the
    family total is X = I + E with ||E||_max about 1e-7, far above rounding:
    the series R matches the ``eigh``-formed X^{-1/2}, and R X R^dag is the
    identity, both to 1e-14."""
    totals = []

    def recorded(total, _original=pgm._family_renormalizer):
        totals.append(total)
        return _original(total)

    monkeypatch.setattr(pgm, "_family_renormalizer", recorded)
    q = build_random_qrac(4, 3, seed=37)
    build_pgm(Ensemble(np.random.default_rng(1).dirichlet(np.full(16, 0.01)), q.encoder))
    (total,) = totals
    x = _hermitize(total)
    eye = np.eye(len(x))
    assert np.abs(x - eye).max() > 1e-8
    w, v = np.linalg.eigh(x)
    ren = pgm._family_renormalizer(total)
    np.testing.assert_allclose(ren, (v * w**-0.5) @ v.conj().T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(ren @ x @ ren.conj().T, eye, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [4, 16, 32])
def test_renormalizer_passes_the_identity_check_at_the_cutoffs_bound(dim):
    """A Hermitian X = I + E with ||E||_max = 1e-4, the largest E the support
    cutoff allows: the series' O(||E||^3) error leaves R X R^dag the identity
    within ``TOL_POVM``."""
    rng = np.random.default_rng(dim)
    dev = _hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    x = np.eye(dim) + dev * (1e-4 / np.abs(dev).max())
    ren = pgm._family_renormalizer(x)
    assert np.abs(ren @ x @ ren.conj().T - np.eye(dim)).max() <= TOL_POVM
