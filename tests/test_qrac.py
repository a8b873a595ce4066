from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qraclab import qrac
from qraclab.bits import (
    bit_at,
    bit_column,
    bit_columns,
    hamming_table,
)
from qraclab.errors import SizeCapError, ValidationError
from qraclab.linalg import BitPovms, DensityMatrix, Povm
from qraclab.qrac import (
    P_STANDARD,
    Ensemble,
    Qrac,
    bit_error_table,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
    success_table,
    validate_qrac,
)
from references import count_calls

C = np.cos(np.pi / 8)
S = np.sin(np.pi / 8)


class TestBits:
    def test_msb_first(self):
        # x = 0b100 has x_1 = 1, x_2 = 0, x_3 = 0
        assert bit_at(0b100, 1, 3) == 1
        assert bit_at(0b100, 2, 3) == 0
        assert bit_at(0b100, 3, 3) == 0

    def test_column_matches_bit_at(self):
        col = bit_column(2, 3)
        assert list(col) == [bit_at(x, 2, 3) for x in range(8)]

    def test_columns_built_once_and_read_only(self):
        cols = bit_columns(3)
        assert bit_columns(3) is cols
        assert [list(row) for row in cols] == [list(bit_column(i, 3)) for i in (1, 2, 3)]
        with pytest.raises(ValueError):
            cols[0, 0] = 1

    def test_hamming(self):
        table = hamming_table(4)
        assert table[0b1010, 0b0110] == 2
        assert table[5, 5] == 0


class TestStandardCode:
    def test_state_amplitudes(self):
        q = build_standard_2to1()
        # x = 00 encodes to cos|0> + sin|1>
        np.testing.assert_allclose(
            q.encoder[0b00].mat, np.array([[C * C, C * S], [C * S, S * S]]), atol=1e-12
        )
        # x = 11 encodes to -sin|0> + cos|1>
        np.testing.assert_allclose(
            q.encoder[0b11].mat, np.array([[S * S, -C * S], [-C * S, C * C]]), atol=1e-12
        )

    def test_every_pair_attains_claimed_p(self):
        q = build_standard_2to1()
        table = success_table(q)
        np.testing.assert_allclose(table, np.full((2, 4), P_STANDARD), atol=1e-12)

    def test_validation(self):
        assert validate_qrac(build_standard_2to1()) == pytest.approx(P_STANDARD, abs=1e-12)

    def test_first_decoder_on_10(self):
        q = build_standard_2to1()
        probs = np.einsum("kij,ji->k", q.decoders[0].elements, q.encoder[0b10].mat).real
        assert probs[1] == pytest.approx(C * C, abs=1e-12)

    def test_swapped_decoders_flag_every_pair(self):
        q = build_standard_2to1()
        swapped = BitPovms(np.stack([dec.elements[1] for dec in q.decoders]))
        bad = Qrac(2, 1, q.encoder, swapped, claimed_p=0.0)
        object.__setattr__(bad, "claimed_p", P_STANDARD)  # Qrac is frozen
        assert validate_qrac(bad) == pytest.approx(1 - P_STANDARD, abs=1e-12)
        assert (success_table(bad) < bad.claimed_p).all()  # every (i, x) pair

    def test_claim_enforced_at_construction(self):
        q = build_standard_2to1()
        with pytest.raises(ValidationError):
            Qrac(2, 1, q.encoder, q.decoders, claimed_p=0.9)
        with pytest.raises(ValidationError):
            Qrac(2, 1, q.encoder, q.decoders, claimed_p=float("nan"))

    def test_claim_cannot_be_reassigned(self):
        """A claim set after construction would skip the check above."""
        q = build_standard_2to1()
        with pytest.raises(FrozenInstanceError):
            q.claimed_p = 0.999
        assert q.claimed_p == P_STANDARD


class TestIdentityEncoding:
    def test_perfect_success(self):
        q = build_identity_encoding(3)
        assert q.claimed_p == 1.0
        assert validate_qrac(q) == pytest.approx(1.0)

    def test_states_are_basis_states(self):
        q = build_identity_encoding(2)
        for x in range(4):
            expect = np.zeros((4, 4))
            expect[x, x] = 1.0
            np.testing.assert_allclose(q.encoder[x].mat, expect)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            build_identity_encoding(11)


class TestTensorPower:
    def test_k1_reproduces_base(self):
        base = build_standard_2to1()
        q = build_tensor_power(base, 1)
        assert (q.n, q.m, q.claimed_p) == (base.n, base.m, base.claimed_p)
        for x in range(4):
            np.testing.assert_allclose(q.encoder[x].mat, base.encoder[x].mat)

    def test_k2_shape_and_claim(self):
        q = build_tensor_power(build_standard_2to1(), 2)
        assert (q.n, q.m) == (4, 2)
        assert q.claimed_p == pytest.approx(P_STANDARD)

    def test_k2_states_factor(self):
        base = build_standard_2to1()
        q = build_tensor_power(base, 2)
        # x = 0b0111 splits into blocks 01 and 11, block 1 most significant
        got = q.encoder[0b0111].mat
        expect = np.kron(base.encoder[0b01].mat, base.encoder[0b11].mat)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_k2_every_pair_attains_claim(self):
        q = build_tensor_power(build_standard_2to1(), 2)
        np.testing.assert_allclose(success_table(q), np.full((4, 16), P_STANDARD), atol=1e-10)

    def test_decoders_commute_across_blocks(self):
        q = build_tensor_power(build_standard_2to1(), 2)
        a = q.decoders[0].elements[0]
        b = q.decoders[3].elements[1]
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            build_tensor_power(build_standard_2to1(), 9)

    @pytest.mark.parametrize("k", [0, -1, 2.0, 1.5, "2", None])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValidationError, match=f"k must be an integer >= 1, got {k!r}"):
            build_tensor_power(build_standard_2to1(), k)

    def test_numpy_integer_k(self):
        np.testing.assert_array_equal(
            build_tensor_power(build_standard_2to1(), np.int64(2)).decoders.f0s,
            build_tensor_power(build_standard_2to1(), 2).decoders.f0s,
        )

    @pytest.mark.parametrize(
        "base, k",
        [("std", 1), ("std", 2), ("std", 3), ("std", 5), ("haar-3-2", 2)],
    )
    def test_decoders_equal_per_decoder_kron_chain(self, base, k):
        base = build_standard_2to1() if base == "std" else build_random_qrac(3, 2, seed=4)
        blocks = [base.dim**j for j in range(k)]
        chain = [
            np.kron(np.kron(np.eye(left), f0), np.eye(base.dim**k // (left * base.dim)))
            for left in blocks
            for f0 in base.decoders.f0s
        ]
        np.testing.assert_array_equal(build_tensor_power(base, k).decoders.f0s, np.stack(chain))


class TestRandomQrac:
    def test_deterministic_in_seed(self):
        a = build_random_qrac(3, 2, seed=11)
        b = build_random_qrac(3, 2, seed=11)
        assert a.claimed_p == b.claimed_p
        for x in range(8):
            np.testing.assert_array_equal(a.encoder[x].mat, b.encoder[x].mat)

    def test_different_seeds_differ(self):
        a = build_random_qrac(2, 1, seed=0)
        b = build_random_qrac(2, 1, seed=1)
        assert np.abs(a.encoder[0].mat - b.encoder[0].mat).max() > 1e-3

    def test_claim_is_measured_worst_case(self):
        q = build_random_qrac(2, 2, seed=5)
        assert q.claimed_p == pytest.approx(success_table(q).min(), abs=1e-15)
        assert validate_qrac(q) == pytest.approx(q.claimed_p)

    def test_one_success_table_per_code(self, monkeypatch):
        """The claim is the minimum of the success table that validation
        computes; no second table is made for it."""
        calls = Counter()  # trace_table calls by their number of operators
        count_calls(monkeypatch, qrac, "trace_table", calls, key=lambda ops, factors: len(ops))
        q = build_random_qrac(10, 5, seed=4)
        assert calls == Counter({10: 1})
        assert q.claimed_p == float(1.0 - bit_error_table(q.decoders.f0s, q.encoder).max())

    def test_explicit_claim_still_checked(self):
        q = build_random_qrac(4, 2, seed=6)
        same = Qrac(q.n, q.m, q.encoder, q.decoders, claimed_p=q.claimed_p)
        assert same.claimed_p == q.claimed_p
        with pytest.raises(ValidationError, match="not met"):
            Qrac(q.n, q.m, q.encoder, q.decoders, claimed_p=q.claimed_p + 1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_single_bit_codes_balance_helstrom(self, seed):
        # for two pure states under a uniform prior the optimal measurement
        # succeeds equally on both, so min == average == helstrom value
        from qraclab.pgm import helstrom_success

        q = build_random_qrac(1, 2, seed=seed)
        pmax = helstrom_success(Ensemble.uniform(q))[0]
        assert q.claimed_p == pytest.approx(pmax, abs=1e-9)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            build_random_qrac(13, 2, seed=0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rows, dim", [(4, 2), (8, 4), (32, 16), (256, 16), (1024, 32), (64, 64)])
def test_unit_rows_equal_per_row_norms(seed, rows, dim):
    """The batched norms keep the bits of np.linalg.norm row by row."""
    gauss = np.random.default_rng(seed).normal(size=(rows, 2, dim))
    vecs = gauss[:, 0] + 1j * gauss[:, 1]
    reference = vecs / np.array([np.linalg.norm(v) for v in vecs])[:, None]
    np.testing.assert_array_equal(qrac._unit_rows(vecs), reference)


class TestEnsemble:
    def test_uniform(self):
        e = Ensemble.uniform(build_standard_2to1())
        np.testing.assert_allclose(e.prior, np.full(4, 0.25))
        assert e.n == 2 and e.states.dim == 2

    def test_rejects_bad_prior(self):
        q = build_standard_2to1()
        with pytest.raises(ValidationError):
            Ensemble(np.array([0.5, 0.5, 0.1, -0.1]), q.encoder)
        with pytest.raises(ValidationError):
            Ensemble(np.array([0.5, 0.5, 0.5, 0.5]), q.encoder)
        with pytest.raises(ValidationError, match="NaN"):
            Ensemble(np.array([np.nan, 0.5, 0.25, 0.25]), q.encoder)

    def test_rejects_non_power_of_two(self):
        states = tuple(DensityMatrix(np.eye(2) / 2) for _ in range(3))
        with pytest.raises(ValidationError):
            Ensemble(np.full(3, 1 / 3), states)


def _codes():
    std = build_standard_2to1()
    return {
        "std": std,
        "std-tensor-2": build_tensor_power(std, 2),
        "identity-3": build_identity_encoding(3),
        "haar-4-2": build_random_qrac(4, 2, seed=1),
    }


class TestDecoderStack:
    @pytest.mark.parametrize("name", ["std", "std-tensor-2", "identity-3", "haar-4-2"])
    def test_povm_tuple_and_stack_agree(self, name):
        # the per-bit Povms read back from the stack hold its F0_i; a code
        # takes the stack alone, not a tuple of them
        q = _codes()[name]
        assert isinstance(q.decoders, BitPovms)
        povms = tuple(q.decoders)
        np.testing.assert_array_equal(np.stack([p.elements[0] for p in povms]), q.decoders.f0s)
        from_stack = Qrac(q.n, q.m, q.encoder, BitPovms(q.decoders.f0s), claimed_p=q.claimed_p)
        np.testing.assert_array_equal(success_table(from_stack), success_table(q))
        with pytest.raises(ValidationError, match="decoders must be BitPovms, got tuple"):
            Qrac(q.n, q.m, q.encoder, povms, claimed_p=q.claimed_p)

    def test_dimension_checked(self):
        q = build_standard_2to1()
        wide = BitPovms(np.stack([np.eye(4) / 2] * 2))
        with pytest.raises(ValidationError, match="decoder dimension differs"):
            Qrac(2, 1, q.encoder, wide, claimed_p=0.0)

    def test_decoders_off_identity_rejected(self):
        # a decoder read as a Povm and a BitPovms row each reject elements
        # that do not sum to the identity
        q = build_standard_2to1()
        plus = q.decoders.f0s[1]
        with pytest.raises(ValidationError, match="sum to identity"):
            Povm((plus, plus))
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            Qrac(2, 1, q.encoder, BitPovms(np.stack([q.decoders.f0s[0], 2 * plus])))
