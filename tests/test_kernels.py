"""The shared per-bit kernels against a per-bit einsum reference written here:
the trace table Tr(F0_i rho_x), the bit-error table built on it, the
reference's marginalisation of a dense measurement labelled 0..k-1, and the
single budget formulas."""

import math

import numpy as np
import pytest

from qraclab.compression import index_bits_cap
from qraclab.conversion import message_bits_budget
from qraclab.decoding import expected_hamming_exact, identification_bound_check
from qraclab.errors import DimensionMismatchError, DomainError, LabelMismatchError
from qraclab.info import ClassicalChannel, max_channel_capacity
from qraclab.linalg import Povm, gram_dense, trace_table
from qraclab.minimax import evaluate_worstcase, solve_worstcase
from qraclab.pgm import build_pgm, per_bit_success, success_prob_full
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
    expected = np.einsum("iab,xba->ix", f0s, gram_dense(q.encoder.factors)).real
    np.testing.assert_allclose(trace_table(f0s, q.encoder.factors), expected, rtol=0, atol=1e-13)


def test_bundle_marginals_and_error_table(code_and_pgm):
    q, pg = code_and_pgm
    f0s = pg.marginals.f0s
    assert f0s.shape == (q.n, q.dim, q.dim)
    for i, mv in enumerate(pg.marginals):
        np.testing.assert_array_equal(f0s[i], mv.elements[0])
    err = bit_error_table(f0s, q.encoder)
    np.testing.assert_allclose(
        err, reference_errors(f0s, gram_dense(q.encoder.factors), q.n), rtol=0, atol=1e-13
    )


def test_shuffled_full_povm_marginals(code_and_pgm):
    """The full table's elements in a shuffled order are another measurement,
    outcome k now reporting the string k: the dense reference marginalises
    it by position.  In their own order they give the bundle's marginals."""
    q, pg = code_and_pgm
    strings = range(2**q.n)
    order = np.random.default_rng(q.n).permutation(2**q.n)
    shuffled = Povm(np.stack([pg.full.elements[y] for y in order]))
    f0s = reference_f0s(shuffled.elements, strings, q.n)
    want = reference_errors(f0s, gram_dense(q.encoder.factors), q.n).sum(axis=0)
    _, _, per_x = evaluate_worstcase(q, shuffled)
    np.testing.assert_allclose(per_x, want, rtol=0, atol=1e-12)
    in_order = reference_f0s(pg.full.elements, strings, q.n)
    np.testing.assert_allclose(in_order, pg.marginals.f0s, rtol=0, atol=1e-9)


def test_success_table_is_one_minus_error(code_and_pgm):
    q, _ = code_and_pgm
    f0s = np.stack([dec.elements[0] for dec in q.decoders])
    want = 1.0 - reference_errors(f0s, gram_dense(q.encoder.factors), q.n)
    np.testing.assert_allclose(success_table(q), want, rtol=0, atol=1e-13)


def test_full_success_diagonal(code_and_pgm):
    q, pg = code_and_pgm
    elems = np.stack(pg.full.elements)
    want = [np.trace(e @ rho).real for e, rho in zip(elems, gram_dense(q.encoder.factors))]
    np.testing.assert_allclose(np.diagonal(pg.full.table(q.encoder)), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(pg.full.diagonal(q.encoder), want, rtol=0, atol=1e-13)


def test_solver_average_marginals():
    q = build_tensor_power(build_standard_2to1(), 2)
    sol = solve_worstcase(q, eps=0.02)
    meas = sol.measurement
    assert meas.elements.shape == (2**q.n, q.dim, q.dim)
    got = reference_f0s(meas.elements, range(2**q.n), q.n)
    worst, _, per_x = evaluate_worstcase(q, meas)
    want = reference_errors(got, gram_dense(q.encoder.factors), q.n).sum(axis=0)
    np.testing.assert_allclose(per_x, want, rtol=0, atol=1e-12)
    assert worst == pytest.approx(sol.worst_x_value, abs=1e-9)


def test_probabilities_match_per_element_trace():
    q = build_tensor_power(build_standard_2to1(), 2)
    pg = build_pgm(Ensemble.uniform(q), full_table=True)
    rho = q.encoder[5].mat
    want = [np.trace(e @ rho).real for e in pg.full.elements]
    np.testing.assert_allclose(pg.full.table(q.encoder)[5], want, rtol=0, atol=1e-13)


def _four_bit_bundle(q):
    """The tensor square's bundle, whose full table has one outcome per
    4-bit string: more outcomes than the standard code has strings."""
    return build_pgm(Ensemble.uniform(build_tensor_power(q, 2)), full_table=True)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda q, pg: expected_hamming_exact(q, Ensemble.uniform(q), pg),
        lambda q, pg: evaluate_worstcase(q, Povm(np.stack(pg.full.elements))),
        lambda q, pg: identification_bound_check(q, pg.full),
    ],
    ids=["expected_hamming_exact", "evaluate_worstcase", "identification_bound_check"],
)
def test_out_of_range_labels_rejected(evaluate):
    """Outcome k reports the string k, so a measurement for 4-bit strings
    has outcomes beyond the standard code's 2-bit strings."""
    q = build_standard_2to1()
    with pytest.raises(LabelMismatchError, match="code has 2|code has 4 strings"):
        evaluate(q, _four_bit_bundle(q))


def test_bundle_for_another_n_rejected():
    """Every reader of a bundle refuses one built for another n, here for
    fewer bits than the code's."""
    square = build_tensor_power(build_standard_2to1(), 2)
    other = build_pgm(Ensemble.uniform(build_standard_2to1()), full_table=True)
    for read in (
        lambda: expected_hamming_exact(square, Ensemble.uniform(square), other),
        lambda: per_bit_success(Ensemble.uniform(square), other, 1),
        lambda: success_prob_full(Ensemble.uniform(square), other),
    ):
        with pytest.raises(LabelMismatchError, match="measurement built for n = 2, code has 4"):
            read()


def test_bundle_for_another_dimension_rejected():
    """Every reader of a bundle refuses one built on states of another
    dimension, here a qubit code read with a two-qubit code's bundle."""
    q = build_random_qrac(2, 1, seed=1)
    ens = Ensemble.uniform(q)
    other = build_pgm(Ensemble.uniform(build_random_qrac(2, 2, seed=1)), full_table=True)
    for read in (
        lambda: per_bit_success(ens, other, 1),
        lambda: success_prob_full(ens, other),
        lambda: expected_hamming_exact(q, ens, other),
        lambda: identification_bound_check(q, other.full),
    ):
        with pytest.raises(DimensionMismatchError, match="measurement built for dimension 4, "):
            read()


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
    for m, size_s, eta in [
        (1, 1, 0.5), (3, 2, 0.3), (7, 3, 0.1), (1, 1000, 1e-3), (3, 2**20, 1e-300),
        (7, 2**20 + 1, 0.999), (2, 160, 2 / math.e**2), (5, 7, 2 / math.e**4),
    ]:
        want = m + math.ceil(math.log2(size_s)) + math.ceil(math.log2(math.log(2.0 / eta))) + 2
        assert message_bits_budget(m, size_s, eta) == want, (m, size_s, eta)
    assert index_bits_cap(1.3, 0.1) == 2 + math.ceil(math.log2(math.log(10.0))) + 2
    for bad in (
        lambda: index_bits_cap(2, math.nan),
        lambda: index_bits_cap(2, 1.5),
        lambda: message_bits_budget(1, 100, math.nan),
        lambda: message_bits_budget(1, 100, 1.5),
    ):
        with pytest.raises(DomainError, match="eta must lie in"):
            bad()


def test_capacity_reports_column_max_sum():
    table = np.array([[0.9, 0.1], [0.2, 0.8]])
    cap = max_channel_capacity(ClassicalChannel(table))
    assert cap.column_max_sum == pytest.approx(1.7, abs=1e-15)
    assert 2.0**cap.value == pytest.approx(cap.column_max_sum, rel=1e-15)
