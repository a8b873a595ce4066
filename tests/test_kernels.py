"""The shared per-bit kernels against a per-bit einsum reference written here:
the trace table Tr(F0_i rho_x), the bit-error table built on it, the
marginalisation of a string-labelled measurement, and the single budget
formulas."""

import math

import numpy as np
import pytest

from qraclab.compression import index_bits_cap
from qraclab.conversion import message_bits_budget
from qraclab.decoding import expected_hamming_exact, identification_bound_check, sample_decode
from qraclab.errors import LabelMismatchError
from qraclab.info import ClassicalChannel, max_channel_capacity
from qraclab.linalg import GramPovm, Povm, gram_dense, trace_table
from qraclab.minimax import evaluate_worstcase, solve_worstcase
from qraclab.pgm import build_pgm, marginal_f0s
from qraclab.qrac import (
    Ensemble,
    bit_error_table,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
    hamming_budget,
    success_table,
)


def _code(kind):
    base = build_standard_2to1()
    if kind == "(2,1)":
        return base
    if kind == "(4,2)":
        return build_tensor_power(base, 2)
    if kind == "haar(5,4)":
        return build_random_qrac(5, 4, seed=11)
    return build_tensor_power(base, 5)


CODES = ("(2,1)", "(4,2)", "haar(5,4)", "(10,5)")


@pytest.fixture(scope="module", params=CODES)
def code_and_pgm(request):
    q = _code(request.param)
    return q, build_pgm(Ensemble.uniform(q), full_table=True)


def reference_f0s(elements, labels, n):
    """F0_i summed element by element over labels whose bit i is 0."""
    dim = elements[0].shape[0]
    out = np.zeros((n, dim, dim), dtype=complex)
    for elem, y in zip(elements, labels):
        for i in range(1, n + 1):
            if (y >> (n - i)) & 1 == 0:
                out[i - 1] += elem
    return out


def reference_errors(f0s, states, n):
    """err[i-1, x] from one einsum per bit."""
    err = np.empty((n, len(states)))
    for i in range(1, n + 1):
        p0 = np.einsum("ab,xba->x", f0s[i - 1], states).real
        bit = (np.arange(len(states)) >> (n - i)) & 1
        err[i - 1] = np.where(bit == 0, 1.0 - p0, p0)
    return err


def test_trace_table_matches_einsum(code_and_pgm):
    q, pg = code_and_pgm
    f0s = np.stack([mv.elements[0] for mv in pg.marginals])
    expected = np.einsum("iab,xba->ix", f0s, q.encoder.dense()).real
    np.testing.assert_allclose(trace_table(f0s, q.encoder.factors), expected, rtol=0, atol=1e-13)


def test_bundle_marginals_and_error_table(code_and_pgm):
    q, pg = code_and_pgm
    f0s = marginal_f0s(pg, q.n)
    assert f0s.shape == (q.n, q.dim, q.dim)
    for i, mv in enumerate(pg.marginals):
        np.testing.assert_array_equal(f0s[i], mv.elements[0])
    err = bit_error_table(f0s, q.encoder)
    np.testing.assert_allclose(
        err, reference_errors(f0s, q.encoder.dense(), q.n), rtol=0, atol=1e-13
    )


def test_shuffled_full_povm_marginals(code_and_pgm):
    q, pg = code_and_pgm
    order = np.random.default_rng(q.n).permutation(2**q.n)
    shuffled = Povm(
        tuple(pg.full.elements[y] for y in order), outcomes=tuple(int(y) for y in order)
    )
    got = marginal_f0s(shuffled, q.n)
    want = reference_f0s(shuffled.elements, shuffled.outcomes, q.n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the full table's marginals are the bundle's marginals
    np.testing.assert_allclose(got, marginal_f0s(pg, q.n), rtol=0, atol=1e-9)


def test_success_table_is_one_minus_error(code_and_pgm):
    q, _ = code_and_pgm
    f0s = np.stack([dec.elements[0] for dec in q.decoders])
    want = 1.0 - reference_errors(f0s, q.encoder.dense(), q.n)
    np.testing.assert_allclose(success_table(q), want, rtol=0, atol=1e-13)


def test_full_success_diagonal(code_and_pgm):
    q, pg = code_and_pgm
    elems = np.stack(pg.full.elements)
    want = [np.trace(e @ rho).real for e, rho in zip(elems, q.encoder.dense())]
    np.testing.assert_allclose(np.diagonal(pg.full.table(q.encoder)), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(pg.full.diagonal(q.encoder), want, rtol=0, atol=1e-13)
    dense = Povm(elems[::-1], outcomes=pg.full.outcomes[::-1])
    np.testing.assert_allclose(dense.diagonal(q.encoder), want[::-1], rtol=0, atol=1e-13)


def test_solver_average_marginals():
    q = build_tensor_power(build_standard_2to1(), 2)
    sol = solve_worstcase(q, eps=0.02)
    meas = sol.measurement
    got = marginal_f0s(meas, q.n)
    np.testing.assert_allclose(
        got, reference_f0s(meas.elements, meas.outcomes, q.n), rtol=0, atol=1e-12
    )
    worst, _, per_x = evaluate_worstcase(q, meas)
    want = reference_errors(got, q.encoder.dense(), q.n).sum(axis=0)
    np.testing.assert_allclose(per_x, want, rtol=0, atol=1e-12)
    assert worst == pytest.approx(sol.worst_x_value, abs=1e-9)


def test_probabilities_match_per_element_trace():
    q = build_tensor_power(build_standard_2to1(), 2)
    pg = build_pgm(Ensemble.uniform(q), full_table=True)
    rho = q.encoder[5].mat
    want = [np.trace(e @ rho).real for e in pg.full.elements]
    np.testing.assert_allclose(pg.full.probabilities(rho), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "evaluate",
    [lambda q, m: expected_hamming_exact(q, Ensemble.uniform(q), m), evaluate_worstcase],
    ids=["expected_hamming_exact", "evaluate_worstcase"],
)
def test_out_of_range_labels_rejected(evaluate):
    q = build_standard_2to1()
    povm = Povm((np.eye(2) / 2, np.eye(2) / 2), outcomes=(1, 4))
    with pytest.raises(LabelMismatchError, match=r"outcome labels must lie in 0\.\.3"):
        evaluate(q, povm)


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize(
    "caller",
    [
        lambda q, m: marginal_f0s(m, q.n),
        identification_bound_check,
        lambda q, m: sample_decode(q, 0, m, seed=0),
    ],
    ids=["marginal_f0s", "identification_bound_check", "sample_decode"],
)
def test_label_outside_the_strings_rejected_by_every_caller(caller, bad):
    q = build_standard_2to1()
    povm = Povm((np.eye(2) / 2, np.eye(2) / 2), outcomes=(0, bad))
    with pytest.raises(LabelMismatchError, match=r"outcome labels must lie in 0\.\.3"):
        caller(q, povm)


def test_gram_povm_marginals_pad_missing_outcomes_with_zero():
    """A GramPovm with fewer than 2^n outcomes reads as the dense measurement
    with the same labels; one with more is rejected."""
    q = build_tensor_power(build_standard_2to1(), 2)
    full = build_pgm(Ensemble.uniform(q), full_table=True).full
    short = GramPovm(full.factors[:2], full.extra + gram_dense(full.factors[2:]).sum(axis=0))
    dense = Povm(short.element_stack, outcomes=short.outcomes)
    np.testing.assert_allclose(marginal_f0s(short, 4), marginal_f0s(dense, 4), rtol=0, atol=1e-13)
    dense = Povm(full.element_stack)
    np.testing.assert_allclose(marginal_f0s(full, 4), marginal_f0s(dense, 4), rtol=0, atol=1e-13)
    with pytest.raises(LabelMismatchError, match=r"outcome labels must lie in 0\.\.7"):
        marginal_f0s(full, 3)


def test_bundle_for_another_n_rejected():
    q = build_standard_2to1()
    other = build_pgm(Ensemble.uniform(build_tensor_power(q, 2)))
    with pytest.raises(LabelMismatchError):
        marginal_f0s(other, q.n)
    with pytest.raises(TypeError):
        marginal_f0s("not a measurement", q.n)


def test_ensemble_stack_is_built_once():
    """The ensemble holds the code's own factor stack, not a copy."""
    q = build_tensor_power(build_standard_2to1(), 2)
    ens = Ensemble.uniform(q)
    assert ens.states is q.encoder


def test_random_code_claims_its_worst_pair():
    q = build_random_qrac(4, 2, seed=3)
    assert q.claimed_p == float(success_table(q).min())


@pytest.mark.parametrize("p", [0.5, 0.6, 0.8535533905932737, 1.0])
def test_hamming_budget_formula(p):
    assert hamming_budget(p, 7) == 2.0 * p * (1.0 - p) * 7


@pytest.mark.parametrize("p", [0.0, 0.05, 0.4999])
def test_hamming_budget_degenerate_rule(p):
    assert hamming_budget(p, 6) == 3.0


def test_message_budgets():
    assert message_bits_budget(2, 160, 0.2) == 2 + 8 + math.ceil(math.log2(math.log(10.0))) + 2
    assert index_bits_cap(1.3, 0.1) == 2 + math.ceil(math.log2(math.log(10.0))) + 2


def test_capacity_reports_column_max_sum():
    table = np.array([[0.9, 0.1], [0.2, 0.8]])
    cap = max_channel_capacity(ClassicalChannel(table))
    assert cap.column_max_sum == pytest.approx(1.7, abs=1e-15)
    assert 2.0**cap.value == pytest.approx(cap.column_max_sum, rel=1e-15)
