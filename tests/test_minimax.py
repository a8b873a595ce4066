import tracemalloc

import numpy as np
import pytest

import qraclab.linalg as linalg
import qraclab.minimax as mm
from qraclab.cli import main
from qraclab.corpus import DEFAULT_P_MIN
from qraclab.errors import LabelMismatchError, NotConvergedError, SizeCapError
from qraclab.linalg import BitPovms, GramPovm, Povm
from qraclab.minimax import GameSolution, evaluate_worstcase, solve_worstcase
from qraclab.pgm import build_pgm
from qraclab.qrac import (
    Ensemble,
    Qrac,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
)


def _filtered_random_codes(count, seed0, n_hi, m_hi, p_min=0.55):
    rng = np.random.default_rng(seed0)
    out = []
    attempt = 0
    while len(out) < count and attempt < 100 * count:
        n = int(rng.integers(1, n_hi + 1))
        m = int(rng.integers(1, m_hi + 1))
        q = build_random_qrac(n, m, seed=seed0 + attempt)
        attempt += 1
        if q.claimed_p > p_min:
            out.append(q)
    assert len(out) == count
    return out


class TestSolveWorstcase:
    def test_identity_certifies_at_iteration_one(self):
        q = build_identity_encoding(3)
        sol = solve_worstcase(q, eps=0.01)
        assert sol.iterations == 1
        assert sol.converged
        np.testing.assert_allclose(sol.worst_x_value, 0.0, atol=1e-12)
        np.testing.assert_allclose(sol.per_x, np.zeros(8), atol=1e-12)

    def test_standard_code_certifies_near_half(self):
        q = build_standard_2to1()
        sol = solve_worstcase(q, eps=0.01)
        assert sol.converged
        assert sol.worst_x_value <= 0.5 + 0.02
        # symmetry: every input sits at the same value
        np.testing.assert_allclose(sol.per_x, np.full(4, 0.5), atol=1e-9)
        np.testing.assert_allclose(sol.gap, 0.0, atol=1e-9)

    def test_tensor_square_certifies(self):
        q = build_tensor_power(build_standard_2to1(), 2)
        sol = solve_worstcase(q, eps=0.01)
        assert sol.converged
        assert sol.worst_x_value <= 1.0 + 0.04
        np.testing.assert_allclose(sol.per_x, np.full(16, 1.0), atol=1e-9)

    def test_certificate_property_holds(self):
        q = build_standard_2to1()
        sol = solve_worstcase(q, eps=0.01)
        assert sol.certified
        assert sol.worst_x_value <= sol.bound + sol.eps * sol.n

    def test_avg_value_never_exceeds_bound(self):
        # each iterate is a square-root measurement, so its value at its own
        # prior obeys the 2p(1-p)n average-case bound
        for q in _filtered_random_codes(8, seed0=77, n_hi=4, m_hi=2):
            sol = solve_worstcase(q, eps=0.02)
            assert sol.avg_value_at_final_prior <= sol.bound + 1e-8

    def test_gap_nonnegative_within_tolerance(self):
        for q in _filtered_random_codes(8, seed0=901, n_hi=4, m_hi=3):
            sol = solve_worstcase(q, eps=0.02)
            assert sol.gap >= -1e-8

    def test_random_codes_certify(self):
        for q in _filtered_random_codes(12, seed0=4242, n_hi=5, m_hi=3):
            sol = solve_worstcase(q, eps=0.02)
            assert sol.converged
            assert sol.worst_x_value <= 2 * q.claimed_p * (1 - q.claimed_p) * q.n + 0.02 * q.n
            assert sol.gap <= 0.05 * q.n

    def test_averaged_measurement_is_valid_povm(self):
        q = _filtered_random_codes(1, seed0=5, n_hi=3, m_hi=2)[0]
        sol = solve_worstcase(q, eps=0.02)
        assert isinstance(sol.measurement, Povm)
        assert sol.measurement.elements.shape == (2**q.n, q.dim, q.dim)
        total = sum(sol.measurement.elements)
        np.testing.assert_allclose(total, np.eye(q.dim), atol=1e-9)

    def test_prior_trace_records_each_iteration(self):
        q = _filtered_random_codes(1, seed0=31, n_hi=4, m_hi=2)[0]
        sol = solve_worstcase(q, eps=0.02)
        assert len(sol.prior_trace) == sol.iterations
        assert all(0 <= x < 2**q.n for x in sol.prior_trace)

    def test_not_converged_carries_best_iterate(self):
        # an adversarial claim the code cannot meet: claimed_p barely above
        # the true value makes the bound unreachable
        q = build_standard_2to1()
        hopeless = Qrac(n=2, m=1, encoder=q.encoder, decoders=q.decoders)
        hopeless.claimed_p = 0.999
        with pytest.raises(NotConvergedError) as exc_info:
            solve_worstcase(hopeless, eps=0.001, max_iters=25)
        best = exc_info.value.best
        assert isinstance(best, GameSolution)
        assert not best.converged
        assert best.iterations <= 25
        np.testing.assert_allclose(best.worst_x_value, 0.5, atol=0.05)
        _, _, per_x = evaluate_worstcase(hopeless, best.measurement)
        np.testing.assert_allclose(per_x, best.per_x, atol=1e-10)

    def test_not_converged_best_averages_only_its_iterates(self):
        # here the best average is an earlier iterate than the last, so its
        # measurement must average that prefix of the iterates, not all of them
        q = build_random_qrac(4, 1, seed=5)
        hopeless = Qrac(n=4, m=1, encoder=q.encoder, decoders=q.decoders)
        hopeless.claimed_p = 0.999
        with pytest.raises(NotConvergedError) as exc_info:
            solve_worstcase(hopeless, eps=0.001, max_iters=25)
        best = exc_info.value.best
        assert best.iterations < 25
        worst, arg, per_x = evaluate_worstcase(hopeless, best.measurement)
        np.testing.assert_allclose(per_x, best.per_x, atol=1e-10)
        assert arg == best.worst_x
        np.testing.assert_allclose(worst, best.worst_x_value, atol=1e-10)

    def test_size_caps(self):
        from qraclab.linalg import DensityMatrix

        mixed = DensityMatrix(np.eye(2) / 2)
        q9 = Qrac(
            n=9,
            m=1,
            encoder=(mixed,) * 512,
            decoders=BitPovms(np.tile(np.eye(2) / 2, (9, 1, 1))),
            claimed_p=0.0,
        )
        with pytest.raises(SizeCapError):
            solve_worstcase(q9, eps=0.1)
        flat = Qrac(
            n=1,
            m=5,
            encoder=(DensityMatrix(np.eye(32) / 32),) * 2,
            decoders=BitPovms([np.eye(32) / 2]),
            claimed_p=0.0,
        )
        with pytest.raises(SizeCapError):
            solve_worstcase(flat, eps=0.1)


@pytest.mark.parametrize(
    "code",
    [lambda: build_random_qrac(5, 4, seed=0), lambda: build_tensor_power(build_standard_2to1(), 3)],
    ids=["haar-5-4", "std-tensor-3"],
)
def test_each_iteration_factors_two_matrices(code, monkeypatch):
    """Of the two matrices one solver iteration inverts the square root of,
    the average state and the family total, it factors the average alone,
    whatever n: the family total's inverse square root is a closed-form
    series, and the per-bit marginals are sandwiches of bit sums, not
    factored on their own."""
    q = code()
    factored = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sol = solve_worstcase(q, eps=0.02)
    assert sol.converged
    assert sum(factored) == sol.iterations


def test_no_iteration_densifies_the_full_table(monkeypatch, capsys):
    """No command reads the certificate's measurement: ``minimax`` and
    ``suite --kind minimax`` run with every Gram densification refused."""

    def refuse(factors):
        raise AssertionError("the certificate was densified")

    monkeypatch.setattr(mm, "gram_dense", refuse)
    monkeypatch.setattr(linalg, "gram_dense", refuse)
    for argv in (
        ["minimax", "--n", "4", "--m", "2", "--deterministic"],
        ["suite", "--kind", "minimax", "--seeds", "3", "--deterministic"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_certify_corpus_is_pinned():
    """The 41 Haar (5, 4) codes of the certify corpus (seeds from 20250601,
    kept when their worst-case p exceeds the corpus floor) take 936 solver
    iterations in all and end on these worst inputs."""
    codes, seed = [], 20250601
    while len(codes) < 41:
        q = build_random_qrac(5, 4, seed=seed)
        seed += 1
        if q.claimed_p > DEFAULT_P_MIN:
            codes.append(q)
    sols = [solve_worstcase(q, eps=0.02) for q in codes]
    assert all(sol.converged for sol in sols)
    assert sum(sol.iterations for sol in sols) == 936
    assert tuple(sol.worst_x for sol in sols) == (
        13, 0, 24, 21, 0, 9, 7, 20, 10, 26, 23, 16, 21, 14, 18, 17, 12, 2, 8, 23, 1,
        26, 1, 22, 26, 13, 6, 16, 31, 18, 28, 23, 8, 29, 2, 31, 26, 31, 17, 7, 2,
    )


def _dense(full: GramPovm) -> Povm:
    return Povm(np.stack(full.elements))


class TestEvaluateWorstcase:
    def test_identity_pgm_all_zero(self):
        q = build_identity_encoding(2)
        bundle = build_pgm(Ensemble.uniform(q), full_table=True)
        worst, arg, per_x = evaluate_worstcase(q, _dense(bundle.full))
        np.testing.assert_allclose(per_x, np.zeros(4), atol=1e-12)
        assert worst <= 1e-12
        assert arg == 0  # lexicographic tie-break

    def test_standard_uniform_pgm_is_half_everywhere(self):
        q = build_standard_2to1()
        bundle = build_pgm(Ensemble.uniform(q), full_table=True)
        worst, arg, per_x = evaluate_worstcase(q, _dense(bundle.full))
        np.testing.assert_allclose(per_x, np.full(4, 0.5), atol=1e-12)
        assert arg == 0

    def test_constant_output_povm(self):
        # single outcome I, which reports 00: input 11 misses both bits
        q = build_standard_2to1()
        always_00 = Povm((np.eye(2, dtype=complex),))
        worst, arg, per_x = evaluate_worstcase(q, always_00)
        assert worst == pytest.approx(2.0)
        assert arg == 0b11
        np.testing.assert_allclose(per_x, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_label_outside_range_rejected(self):
        # five outcomes: outcome 4 would report a string of three bits
        q = build_standard_2to1()
        bad = Povm(np.tile(np.eye(2, dtype=complex) / 5, (5, 1, 1)))
        with pytest.raises(LabelMismatchError, match="5 outcomes, code has 4 strings"):
            evaluate_worstcase(q, bad)

    def test_linear_in_measurement(self):
        q = _filtered_random_codes(1, seed0=63, n_hi=3, m_hi=2)[0]
        bundle_u = build_pgm(Ensemble.uniform(q), full_table=True)
        rng = np.random.default_rng(8)
        w = rng.dirichlet(np.ones(2**q.n))
        bundle_w = build_pgm(Ensemble(tuple(w), q.encoder), full_table=True)
        mix = Povm(
            tuple(
                (a + b) / 2
                for a, b in zip(bundle_u.full.elements, bundle_w.full.elements)
            )
        )
        _, _, per_u = evaluate_worstcase(q, _dense(bundle_u.full))
        _, _, per_w = evaluate_worstcase(q, _dense(bundle_w.full))
        _, _, per_mix = evaluate_worstcase(q, mix)
        np.testing.assert_allclose(per_mix, (per_u + per_w) / 2, atol=1e-8)

    def test_solver_output_matches_reevaluation(self):
        q = _filtered_random_codes(1, seed0=99, n_hi=4, m_hi=2)[0]
        sol = solve_worstcase(q, eps=0.02)
        worst, arg, per_x = evaluate_worstcase(q, sol.measurement)
        np.testing.assert_allclose(per_x, sol.per_x, atol=1e-10)
        assert arg == sol.worst_x
        np.testing.assert_allclose(worst, sol.worst_x_value, atol=1e-10)


def test_solver_iterations_build_no_public_gram_povm(monkeypatch):
    """The solver builds marginals only: no public ``GramPovm(...)``, no
    ``gram_dense`` and no ``eigvalsh``.  The first read of the measurement
    rebuilds it from exactly ``iterations`` priors, one full table each, and
    validates it by one ``eigvalsh``; a second read returns the same object."""
    counts = {"GramPovm": 0, "eigvalsh": 0, "gram_dense": 0, "full": 0}

    def counted_post_init(self, _original=GramPovm.__post_init__):
        counts["GramPovm"] += 1
        _original(self)

    def counted_eigvalsh(a, _original=np.linalg.eigvalsh):
        counts["eigvalsh"] += 1
        return _original(a)

    def counted_gram_dense(factors, _original=mm.gram_dense):
        counts["gram_dense"] += 1
        return _original(factors)

    def counted_pgm_raw(*args, _original=mm._pgm_raw, **kwargs):
        counts["full"] += bool(kwargs.get("full_table"))
        return _original(*args, **kwargs)

    monkeypatch.setattr(GramPovm, "__post_init__", counted_post_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(mm, "gram_dense", counted_gram_dense)
    monkeypatch.setattr(mm, "_pgm_raw", counted_pgm_raw)
    q = build_random_qrac(3, 2, seed=29)  # p 0.601: the game is not trivial
    counts.update(dict.fromkeys(counts, 0))
    sol = solve_worstcase(q, eps=0.02)
    assert sol.converged and sol.iterations > 10
    assert "priors" not in repr(sol) and sol == sol and sol != solve_worstcase(q, eps=0.02)
    assert counts == {"GramPovm": 0, "eigvalsh": 0, "gram_dense": 0, "full": 0}
    assert sol.priors.shape == (sol.iterations, 2**q.n)
    first = sol.measurement
    assert counts == {
        "GramPovm": 0, "eigvalsh": 1, "gram_dense": sol.iterations, "full": sol.iterations
    }
    assert sol.measurement is first
    assert counts["gram_dense"] == sol.iterations


def test_solver_memory_stays_below_the_factors_it_no_longer_keeps():
    """Haar(3, 2) seed 29 squared, n = 6, takes 141 iterations; the solver's
    traced peak stays below T 2^n d r complex entries, what the iterates'
    factor stacks alone held when the solver kept them."""
    q = build_tensor_power(build_random_qrac(3, 2, seed=29), 2)
    size, dim, rank = q.encoder.factors.shape
    tracemalloc.start()
    try:
        sol = solve_worstcase(q, eps=0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.converged and sol.iterations == 141
    assert peak < sol.iterations * size * dim * rank * 16
