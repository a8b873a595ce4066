import dataclasses
from collections import Counter
import functools
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qraclab.conversion as cv
from qraclab.bits import bit_at, bit_column
from qraclab.compression import FAIL_INDEX, CompressionScheme, _transcript, build_scheme
from qraclab.errors import (
    BadShiftError,
    DerandomizationFailedError,
    DomainError,
    SizeCapError,
    ValidationError,
)
from qraclab.info import ClassicalChannel
from qraclab.linalg import BitPovms, DensityMatrix, GramStates
from qraclab.pgm import build_pgm
from qraclab.qrac import (
    Ensemble,
    Qrac,
    bit_error_table,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
)
from qraclab.rng import TAG_BOB, TAG_ENCODE, TAG_SHARED, counter_stream
from references import count_calls, rotate_ref, shift_perm


def perm_row(r, d, n):
    """``perm_table``'s row for the single shift (r, d)."""
    return cv.perm_table(np.array([[r, d]]), n)[0]


def shifted_channel(base, r, d):
    """The channel shift (r, d) sees: the code's readout channel ``base``
    with rows and columns relabelled by the reference permutation."""
    perm = shift_perm(r, d, base.in_size.bit_length() - 1)
    return ClassicalChannel(base.table[perm][:, perm])


class TestShift:
    def test_worked_example(self):
        assert rotate_ref(0b011, 1, 3) == 0b110
        assert perm_row(0, 1, 3)[0b011] == 0b110

    def test_full_rotation_is_identity(self):
        assert list(perm_row(0, 4, 4)) == list(range(16))

    def test_inverse_property_exhaustive(self):
        # unrotation by d is rotation by n - d, and d = n is its own inverse
        n = 4
        for d in range(1, n + 1):
            perm, back = perm_row(0, d, n), perm_row(0, n - d or n, n)
            assert list(back[perm]) == list(range(2**n))
            assert list(perm[back]) == list(range(2**n))

    def test_bad_shift_rejected(self):
        with pytest.raises(BadShiftError):
            cv._shift_pairs([[0b01, 0]], 2)
        with pytest.raises(BadShiftError):
            cv._shift_pairs([[0b01, 3]], 2)
        with pytest.raises(DomainError):
            cv._shift_pairs([[4, 1]], 2)

    @given(st.integers(min_value=1, max_value=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rotation_bijection(self, n, data):
        d = data.draw(st.integers(min_value=1, max_value=n))
        perm = perm_row(0, d, n)
        assert list(perm) == [rotate_ref(x, d, n) for x in range(2**n)]
        assert sorted(perm) == list(range(2**n))
        assert list(perm_row(0, n - d or n, n)[perm]) == list(range(2**n))
        # rotation preserves weight
        assert [bin(y).count("1") for y in perm] == [bin(x).count("1") for x in range(2**n)]


class TestSharedShift:
    """A shared shift is one (r, d) row of the codebook's shift array."""

    def test_perm_table_rows_match_scalar(self):
        s_set = cv.sample_newman_set(4, 0.5, seed=3)
        table = cv.perm_table(s_set, 4)
        assert table.shape == (len(s_set), 16)
        for (r, d), row in zip(s_set, table):
            assert list(row) == list(shift_perm(int(r), int(d), 4))

    def test_validation(self):
        with pytest.raises(BadShiftError):
            cv._shift_pairs([[0, 0]], 3)
        with pytest.raises(DomainError):
            cv._shift_pairs([[8, 1]], 3)
        with pytest.raises(DomainError):  # beyond int64
            cv._shift_pairs([[2**70, 1]], 3)
        # a non-integer entry is named, not truncated, in a codebook's rows too
        cb = cv.build_rac(build_random_qrac(3, 2, seed=29), eta=0.3, seed=1)
        for r, d, named in [(1.5, 1, "1.5"), (2, 1.5, "1.5"), (2.0, 1, "2.0")]:
            with pytest.raises(DomainError, match=f"integer, got {named}$"):
                cv._shift_pairs([[r, d]], 3)
            with pytest.raises(DomainError, match=f"integer, got {named}$"):
                dataclasses.replace(cb, s_set=[[r, d]])


class TestSymmetrizedRoundtrip:
    """Row x of a shift's channel is the law of the decoded string after
    encoding shift_d(x XOR r), measuring, and undoing the shift."""

    def test_identity_code_returns_input(self):
        base = cv.effective_channel(build_identity_encoding(3))
        for r, d in [(5, 2), (0, 3), (7, 1)]:
            for x in (0b000, 0b101, 0b110):
                dist = shifted_channel(base, r, d).table[x]
                expected = np.zeros(8)
                expected[x] = 1.0
                np.testing.assert_allclose(dist, expected, atol=1e-9)

    def test_standard_code_per_bit_averaged_over_all_s(self):
        base = cv.effective_channel(build_standard_2to1())
        all_s = [(r, d) for r in range(4) for d in (1, 2)]
        for x in range(4):
            hit = np.zeros(2)
            for r, d in all_s:
                dist = shifted_channel(base, r, d).table[x]
                for i in (1, 2):
                    mask = np.array(
                        [(y >> (2 - i)) & 1 == (x >> (2 - i)) & 1 for y in range(4)]
                    )
                    hit[i - 1] += dist[mask].sum()
            np.testing.assert_allclose(hit / len(all_s), [0.75, 0.75], atol=1e-9)

    def test_distribution_normalized(self):
        base = cv.effective_channel(build_random_qrac(3, 2, seed=29))
        table = shifted_channel(base, 3, 2).table
        for dist in table:
            assert dist.min() >= 0.0
            np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)


def bit_errors(q):
    """The code's per-bit error table under the uniform-prior square-root
    measurement, from its per-bit marginals: an independent reference for
    the readout channel's bit marginals, which ``build_rac`` reads."""
    return bit_error_table(build_pgm(Ensemble.uniform(q)).marginals.f0s, q.encoder)


def averaged_success(q):
    """Shift-averaged per-bit success: every (x, i) pair sees 1 minus the
    mean per-bit error of the uniform-prior square-root measurement."""
    return 1.0 - float(bit_errors(q).mean())


class TestPerBitSuccess:
    def test_standard_is_three_quarters_exactly_at_floor(self):
        q = build_standard_2to1()
        value = averaged_success(q)
        np.testing.assert_allclose(value, 0.75, atol=1e-12)
        p = q.claimed_p
        np.testing.assert_allclose(1 - 2 * p * (1 - p), 0.75, atol=1e-12)

    def test_identity_is_one(self):
        assert averaged_success(build_identity_encoding(3)) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_square_is_three_quarters(self):
        q = build_tensor_power(build_standard_2to1(), 2)
        np.testing.assert_allclose(averaged_success(q), 0.75, atol=1e-9)

    def test_sampled_average_constant_over_x_and_i(self):
        # full shift set: every (x, i) pair sees exactly the same error
        for seed in (0, 29):
            q = build_random_qrac(2 if seed == 0 else 3, 2, seed=seed)
            err = bit_errors(q)
            n = q.n
            all_s = np.array([(r, d) for r in range(2**n) for d in range(1, n + 1)])
            avg = cv.shift_average(err, all_s)
            np.testing.assert_allclose(avg, err.mean(), atol=1e-9)


class TestEffectiveChannel:
    def test_identity_code_gives_identity_channel(self):
        q = build_identity_encoding(2)
        for r, d in [(0, 2), (2, 1)]:
            ch = shifted_channel(cv.effective_channel(q), r, d)
            np.testing.assert_allclose(ch.table, np.eye(4), atol=1e-9)

    def test_rows_match_bruteforce_unshift_xor(self):
        q = build_random_qrac(2, 2, seed=0)
        pgm = build_pgm(Ensemble.uniform(q), full_table=True)
        r, d, x = 0b01, 1, 0b10
        row = shifted_channel(cv.effective_channel(q), r, d).table[x]
        sent = rotate_ref(x ^ r, d, 2)
        probs = np.einsum("kij,ji->k", np.stack(pgm.full.elements), q.encoder[sent].mat).real
        brute = np.zeros(4)
        for y_prime in range(4):
            brute[rotate_ref(y_prime, 2 - d, 2) ^ r] += probs[y_prime]
        np.testing.assert_allclose(row, brute, atol=1e-12)

    def test_standard_code_capacity_below_message_size(self):
        base = cv.effective_channel(build_standard_2to1())
        from qraclab.info import max_channel_capacity

        for r in range(4):
            for d in (1, 2):
                ch = shifted_channel(base, r, d)
                assert max_channel_capacity(ch).value <= 1 + 1e-9
                np.testing.assert_allclose(ch.table.sum(axis=1), np.ones(4), atol=1e-12)

    def test_capacity_invariant_under_s(self):
        from qraclab.info import max_channel_capacity

        base = cv.effective_channel(build_random_qrac(3, 2, seed=29))
        values = [
            max_channel_capacity(shifted_channel(base, r, d)).value
            for r, d in [(0, 1), (5, 2), (7, 3), (2, 1)]
        ]
        np.testing.assert_allclose(values, values[0], atol=1e-9)

    def test_size_cap(self):
        mixed = DensityMatrix(np.eye(2) / 2)
        coin = BitPovms(np.tile(np.eye(2) / 2, (9, 1, 1)))
        q9 = Qrac(n=9, m=1, encoder=(mixed,) * 512, decoders=coin, claimed_p=0.0)
        with pytest.raises(SizeCapError):
            cv.effective_channel(q9)


class TestNewmanSet:
    def test_size_formula(self):
        s = cv.sample_newman_set(4, eta=0.5, seed=0, c_newman=8)
        assert len(s) == 128

    def test_reproducible_and_attempt_dependent(self):
        a = cv.sample_newman_set(3, 0.4, seed=11)
        b = cv.sample_newman_set(3, 0.4, seed=11)
        assert np.array_equal(a, b)
        c = cv.sample_newman_set(3, 0.4, seed=11, attempt=1)
        assert not np.array_equal(a, c)

    def test_elements_in_range(self):
        s_set = cv.sample_newman_set(5, 0.6, seed=2)
        assert s_set.shape == (len(s_set), 2) and not s_set.flags.writeable
        for r, d in s_set:
            assert 1 <= d <= 5
            assert 0 <= r < 32

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            cv.sample_newman_set(3, 0.0, seed=0)

    @pytest.mark.parametrize(
        "eta, c_newman", [(1e-300, 8.0), (1e-160, 8.0), (0.2, 1e300), (1e-3, 8.0)]
    )
    def test_size_cap_before_any_draw(self, eta, c_newman):
        # 1e-300 squares to 0.0 and 1e-160 to a subnormal: the cap, not a
        # division error or an allocation, stops them
        with pytest.raises(SizeCapError, match="over cap 1048576"):
            cv.sample_newman_set(3, eta, seed=0, c_newman=c_newman)

    @pytest.mark.parametrize(
        "s_set, error",
        [
            (((0, 0),), BadShiftError),
            (((0, 4),), BadShiftError),
            (((8, 1),), DomainError),
            (((-1, 1),), DomainError),
            (((0, 1, 2),), ValidationError),
            ((0, 1), ValidationError),
            (((2**70, 1),), DomainError),
            (((2.7, 1.9),), DomainError),
            (((0, 1), (3, 1.0)), DomainError),
        ],
    )
    def test_codebook_checks_each_pair(self, s_set, error):
        # every (r, d) row of the array is checked
        cb = cv.build_rac(build_random_qrac(3, 2, seed=29), eta=0.3, seed=1)
        assert not cb.s_set.flags.writeable
        with pytest.raises(error):
            dataclasses.replace(cb, s_set=s_set)

    @pytest.mark.parametrize(
        "eta, match", [(2.0, "eta must lie in"), (math.nan, "eta must lie in"), (1e-320, "overflows")]
    )
    def test_codebook_checks_eta(self, eta, match):
        cb = cv.build_rac(build_standard_2to1(), eta=0.3, seed=1)
        with pytest.raises(DomainError, match=match):
            dataclasses.replace(cb, eta=eta)

    def test_size_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cv, "NEWMAN_MAX_SIZE", 128)
        assert len(cv.sample_newman_set(4, eta=0.5, seed=0, c_newman=8)) == 128
        with pytest.raises(SizeCapError):
            cv.sample_newman_set(4, eta=0.5, seed=0, c_newman=8.001)


class TestBadEventAudit:
    def test_full_set_has_zero_margins(self):
        q = build_random_qrac(2, 2, seed=0)
        all_s = [(r, d) for r in range(4) for d in (1, 2)]
        report = cv.verify_no_bad_event(bit_errors(q), all_s, eta=0.1)
        assert report.ok
        np.testing.assert_allclose(report.worst_margin, 0.0, atol=1e-12)

    def test_identity_code_any_set_ok(self):
        q = build_identity_encoding(3)
        s_set = cv.sample_newman_set(3, 0.3, seed=4)[:10]
        report = cv.verify_no_bad_event(bit_errors(q), s_set, eta=0.3)
        assert report.ok
        np.testing.assert_allclose(report.worst_margin, 0.0, atol=1e-12)

    def test_standard_code_twenty_seeds(self):
        q = build_standard_2to1()
        err = bit_errors(q)
        for seed in range(20):
            s_set = cv.sample_newman_set(2, 0.3, seed=seed)
            report = cv.verify_no_bad_event(err, s_set, eta=0.3)
            assert report.ok

    def test_single_sample_margin_is_table_spread(self):
        # for |S| = 1 the worst margin is exactly max(err) - mean(err),
        # whatever the shift: relabeling permutes the table
        err = bit_errors(build_random_qrac(3, 2, seed=29))
        expected = err.max() - err.mean()
        for s in [(0, 1), (6, 3)]:
            report = cv.verify_no_bad_event(err, [s], eta=0.2)
            np.testing.assert_allclose(report.worst_margin, expected, atol=1e-12)

    def test_offending_pairs_reported(self):
        # an offending pair fails the audit, and its margin is the worst
        q = build_random_qrac(3, 2, seed=29)
        report = cv.verify_no_bad_event(bit_errors(q), [(0, 1)], eta=0.01)
        assert not report.ok
        assert report.worst_margin > 0.01 / 2

    @pytest.mark.parametrize("eta", [math.nan, 5.0, 0.0, 1.0])
    def test_rejects_eta_outside_the_unit_interval(self, eta):
        err = bit_errors(build_standard_2to1())
        with pytest.raises(DomainError, match="eta must lie in"):
            cv.verify_no_bad_event(err, [(0, 1)], eta)

    def test_rejects_a_table_of_another_shape(self):
        # n = 2 rows over 8 inputs: neither a 2-bit nor a 3-bit table
        err = bit_errors(build_tensor_power(build_standard_2to1(), 2))[:2, :8]
        with pytest.raises(ValidationError, match=r"expected a \(2, 4\) error table"):
            cv.verify_no_bad_event(err, [(0, 1)], 0.2)

    @pytest.mark.parametrize("cells", ["all", "one"])
    @pytest.mark.parametrize("value", [math.nan, 5.0])
    def test_rejects_a_table_outside_the_unit_interval(self, value, cells):
        err = bit_errors(build_standard_2to1())
        err[slice(None) if cells == "all" else (1, 2)] = value
        with pytest.raises(ValidationError, match=r"outside \[0, 1\] or NaN"):
            cv.verify_no_bad_event(err, [(0, 1)], 0.2)


class TestBuildRac:
    def test_identity_n3(self):
        q = build_identity_encoding(3)
        cb = cv.build_rac(q, eta=0.2, seed=1)
        assert cb.size_s == math.ceil(8 * 3 / 0.04)
        assert cb.index_bits_s == math.ceil(math.log2(cb.size_s))
        assert cb.total_message_bits == cb.index_bits_s + max(
            sc.index_bits for sc in cb.schemes
        )
        val = cv.validate_rac(cb, q)
        assert val.ok
        # success only dips by the compression failure chance
        assert val.min_success >= 1 - 0.2 / 2

    def test_standard_code(self):
        q = build_standard_2to1()
        cb = cv.build_rac(q, eta=0.2, seed=3)
        val = cv.validate_rac(cb, q)
        assert val.ok
        assert val.min_success >= 0.75 - 0.2 - 1e-9
        assert cb.success_floor == pytest.approx(0.75 - 0.2, abs=1e-12)

    def test_message_budget(self):
        for q, eta in [
            (build_standard_2to1(), 0.2),
            (build_identity_encoding(3), 0.3),
            (build_tensor_power(build_standard_2to1(), 2), 0.3),
        ]:
            cb = cv.build_rac(q, eta=eta, seed=0)
            budget = (
                q.m
                + math.ceil(math.log2(cb.size_s))
                + math.ceil(math.log2(math.log(2 / eta)))
                + 2
            )
            assert cb.total_message_bits <= budget

    def test_single_shift_set_on_symmetric_code(self):
        # the standard code's error table is flat, so even |S| = 1 clears the
        # audit; exercises the ceil(log2(1)) = 0 edge
        q = build_standard_2to1()
        cb = cv.build_rac(q, eta=0.2, seed=5, c_newman=1e-9)
        assert cb.size_s == 1
        assert cb.index_bits_s == 0
        assert cv.validate_rac(cb, q).ok

    def test_derandomization_failure_raises(self):
        # |S| = 1 on a lopsided code: the single-sample margin equals the
        # table spread no matter which s comes out, so every attempt fails
        q = build_random_qrac(3, 2, seed=29)
        with pytest.raises(DerandomizationFailedError) as exc_info:
            cv.build_rac(q, eta=0.2, seed=0, c_newman=1e-9)
        assert exc_info.value.worst_margin > 0.1

    def test_eta_domain_and_size_cap(self):
        q = build_standard_2to1()
        with pytest.raises(DomainError):
            cv.build_rac(q, eta=0.0, seed=0)
        mixed = DensityMatrix(np.eye(2) / 2)
        coin = BitPovms(np.tile(np.eye(2) / 2, (9, 1, 1)))
        q9 = Qrac(n=9, m=1, encoder=(mixed,) * 512, decoders=coin, claimed_p=0.0)
        with pytest.raises(SizeCapError):
            cv.build_rac(q9, eta=0.3, seed=0)

    def test_n8_tensor_power_builds_and_validates(self):
        q = build_tensor_power(build_standard_2to1(), 4)
        start = time.perf_counter()
        cb = cv.build_rac(q, eta=0.2, seed=0)
        val = cv.validate_rac(cb, q)
        assert time.perf_counter() - start < 60.0
        assert (cb.n, cb.size_s) == (8, 1600)
        assert val.ok

    @pytest.mark.parametrize(
        "make, eta",
        [
            (build_standard_2to1, 0.2),
            (lambda: build_identity_encoding(3), 0.3),
            (lambda: build_random_qrac(4, 3, seed=0), 0.3),
        ],
    )
    def test_schemes_match_per_shift_channels(self, make, eta):
        # the relabelled shared table gives the scheme that a fresh per-shift
        # channel build would; z and c_max are summed in the base order, so
        # they may differ from a fresh build in the last bits
        q = make()
        base = cv.effective_channel(q)
        cb = cv.build_rac(q, eta=eta, seed=4)
        for (r, d), sc in zip(cb.s_set, cb.schemes):
            ref = build_scheme(shifted_channel(base, int(r), int(d)), eta / 2)
            assert np.array_equal(sc.channel.table, ref.channel.table)
            np.testing.assert_array_max_ulp(sc.z, ref.z, maxulp=4)
            np.testing.assert_array_max_ulp(sc.c_max, ref.c_max, maxulp=4)
            assert sc.n_cap == ref.n_cap

    def test_one_scheme_per_codebook(self, monkeypatch):
        # building, validating and running the code construct one scheme in
        # all; the per-shift view builds each on first access only
        built = Counter()
        count_calls(monkeypatch, CompressionScheme, "__init__", built)
        q = build_random_qrac(3, 2, seed=29)
        cb = cv.build_rac(q, eta=0.3, seed=1)
        assert built["__init__"] == 1
        cv.validate_rac(cb, q)
        for rep in range(20):
            msg = cv.rac_encode(cb, rep % 8, shared_seed=3, replicate=rep)
            cv.rac_decode(cb, msg, 1, 3, rep)
        assert built["__init__"] == 1
        first = cb.schemes[5]
        assert cb.schemes[5] is first and built["__init__"] == 2
        assert len(cb.schemes) == cb.size_s

    def test_bit_errors_match_the_marginal_reference(self):
        # the channel's bit marginals against the uniform-prior measurement's
        # per-bit marginals, read from the states directly
        std = build_standard_2to1()
        codes = [std, build_tensor_power(std, 2), build_identity_encoding(3)]
        for n, m in [(3, 2), (4, 3), (5, 4)]:
            codes += [build_random_qrac(n, m, seed) for seed in range(4)]
        for q in codes:
            cb = cv.build_rac(q, eta=0.3, seed=1)
            np.testing.assert_allclose(cb.bit_errors, bit_errors(q), rtol=0, atol=1e-12)

    def test_outcome_table_built_once(self, monkeypatch):
        # one measurement per codebook: the Newman audit's error table and
        # the scheme both read the channel it gives
        calls = Counter()  # build_pgm calls by their keyword arguments
        count_calls(
            monkeypatch, cv, "build_pgm", calls, key=lambda ensemble, **kwargs: tuple(kwargs.items())
        )
        q = build_identity_encoding(3)
        cb = cv.build_rac(q, eta=0.3, seed=1)
        assert cb.size_s > 1
        assert calls == Counter({(("full_table", True),): 1})
        cv.validate_rac(cb, q)
        assert calls == Counter({(("full_table", True),): 1})


class TestValidateRac:
    def test_negative_control_single_adversarial_shift(self):
        # without averaging over shifts the per-(x, i) success varies; the
        # honest codebook's table is nearly flat by comparison
        q = build_random_qrac(3, 2, seed=29)
        cb = cv.build_rac(q, eta=0.2, seed=7)
        honest = cv.validate_rac(cb, q)
        rigged = dataclasses.replace(cb, s_set=((0, 1),))
        adversarial = cv.validate_rac(rigged, q)
        spread_adv = float(adversarial.table.max() - adversarial.table.min())
        spread_honest = float(honest.table.max() - honest.table.min())
        assert spread_adv > 0.1
        assert spread_adv > 3 * spread_honest
        assert adversarial.min_success < honest.min_success

    def test_table_matches_readout_of_each_channel(self):
        # recompute success from each shift's channel table and the bits of
        # its outputs, on a lopsided code where a wrong bit-row relabelling shows
        q = build_random_qrac(3, 2, seed=29)
        n = q.n
        cb = cv.build_rac(q, eta=0.2, seed=7)
        rigged = dataclasses.replace(cb, s_set=((5, 1),))
        base = cv.effective_channel(q)
        bits = np.stack([bit_column(i, n) for i in range(1, n + 1)])
        same = bits[:, :, None] == bits[:, None, :]  # (i, x, y)
        for book in (cb, rigged):
            expected = np.zeros((n, 2**n))
            for r, d in book.s_set:
                sc = build_scheme(shifted_channel(base, int(r), int(d)), 0.1)
                fail = (1.0 - 1.0 / sc.ratio) ** sc.n_cap
                right = np.einsum("xy,ixy->ix", sc.channel.table, same)
                expected += (1.0 - fail) * right + 0.5 * fail
            expected /= book.size_s
            table = cv.validate_rac(book, q).table
            np.testing.assert_allclose(table, expected, rtol=0, atol=1e-9)

    def test_reads_the_audited_error_table(self, monkeypatch):
        # the error table is the bit marginals of the scheme's channel, the
        # table the Newman audit checked, so validation builds no measurement
        q = build_random_qrac(3, 2, seed=29)
        cb = cv.build_rac(q, eta=0.3, seed=1)
        table = cb.scheme.channel.table
        marginals = np.zeros((3, 8))
        for i in (1, 2, 3):
            for x in range(8):
                for y in range(8):
                    if bit_at(x, i, 3) != bit_at(y, i, 3):
                        marginals[i - 1, x] += table[x, y]
        np.testing.assert_allclose(cb.bit_errors, marginals, rtol=0, atol=1e-15)
        assert cv.verify_no_bad_event(cb.bit_errors, cb.s_set, cb.eta).ok
        builds = []
        monkeypatch.setattr(cv, "build_pgm", lambda *a, **k: builds.append(a))
        assert cv.validate_rac(cb, q).ok
        assert builds == []

    def test_rejects_another_code(self):
        cb = cv.build_rac(build_standard_2to1(), eta=0.3, seed=1)
        with pytest.raises(ValidationError, match="codebook of an"):
            cv.validate_rac(cb, build_random_qrac(2, 1, seed=0))
        with pytest.raises(ValidationError, match="codebook of an"):
            cv.validate_rac(cb, build_identity_encoding(2))

    def test_rejects_a_foreign_codebook(self):
        # Haar (3, 2) seeds 29 and 54 claim the same (n, m, p); seed 29's
        # codebook must not be read as seed 54's (0.6740 against its own 0.7366)
        a, b = (build_random_qrac(3, 2, seed=seed) for seed in (29, 54))
        a, b = (Qrac(3, 2, q.encoder, q.decoders, claimed_p=0.5784) for q in (a, b))
        cb = cv.build_rac(a, 0.2, seed=1)
        with pytest.raises(ValidationError, match="another encoder"):
            cv.validate_rac(cb, b)
        # the same code with its encoder held by another object is accepted
        same = Qrac(3, 2, GramStates(a.encoder.factors.copy()), a.decoders, claimed_p=0.5784)
        assert same.encoder is not a.encoder
        np.testing.assert_array_equal(cv.validate_rac(cb, same).table, cv.validate_rac(cb, a).table)

    def test_table_shape_and_argmin(self):
        q = build_standard_2to1()
        cb = cv.build_rac(q, eta=0.2, seed=3)
        val = cv.validate_rac(cb, q)
        assert val.table.shape == (2, 4)
        assert val.table.min() == val.min_success


DECODE_CODES = {
    "std": build_standard_2to1,
    "std2": lambda: build_tensor_power(build_standard_2to1(), 2),
    "identity3": lambda: build_identity_encoding(3),
}


@functools.lru_cache(maxsize=None)
def decode_codebook(code, eta):
    return cv.build_rac(DECODE_CODES[code](), eta=eta, seed=11)


def assert_decodes_base_transcript(cb, x, seed, rep):
    """rac_encode runs the base scheme on shift_d(x XOR r) with Alice's
    stream, and each decoded bit is bit i of unshift_d(y) XOR r for the
    accepted draw y, or of Bob's uniform sample on the failure flag."""
    n = cb.n
    msg = cv.rac_encode(cb, x, shared_seed=seed, replicate=rep)
    alice = counter_stream(seed, TAG_ENCODE, rep)
    s_index = int(alice.integers(cb.size_s))
    r, d = cb.s_set[s_index].tolist()
    shared = counter_stream(seed, TAG_SHARED, s_index, rep)
    sent, y = _transcript(cb.scheme, rotate_ref(x ^ r, d, n), shared, alice)
    assert (msg.s_index, msg.sent_index) == (s_index, sent)
    if y is None:
        decoded = int(counter_stream(seed, TAG_BOB, s_index, rep).integers(2**n))
    else:
        decoded = rotate_ref(y, n - d, n) ^ r
    for i in range(1, n + 1):
        assert cv.rac_decode(cb, msg, i, seed, rep) == bit_at(decoded, i, n)


GOLDEN_SEED = 2**100 + 12345  # sets both Philox key words


def golden_books():
    return [cv.build_rac(q, eta=0.2, seed=1)
            for q in (build_random_qrac(5, 4, seed=0), build_standard_2to1())]


def golden_messages(cb):
    """Every x's message at the lowest and highest replicate, with the bits
    that each of its (x, i) pairs decodes."""
    for x in range(2**cb.n):
        for rep in (0, 2**64 - 1):
            msg = cv.rac_encode(cb, x, GOLDEN_SEED, rep)
            yield msg, [cv.rac_decode(cb, msg, i, GOLDEN_SEED, rep) for i in range(1, cb.n + 1)]


class TestEncodeDecode:
    def test_messages_and_bits_match_the_recorded_digest(self):
        """A SHA-256 of every (s_index, sent_index, total_bits, bit): any
        change to a draw, to the sampling search or to the shift moves it."""
        digests, sent = [], set()
        for cb in golden_books():
            h = hashlib.sha256()
            for msg, bits in golden_messages(cb):
                sent.add(msg.sent_index == FAIL_INDEX)
                for bit in bits:
                    h.update(f"{msg.s_index},{msg.sent_index},{msg.total_bits},{bit};".encode())
            digests.append(h.hexdigest())
        assert sent == {True, False}  # both the accept and the failure-flag branch
        assert digests == [
            "0cd56fd420d2f08a638f66bb1dcf6883fdec8dd6bd959b7b798714bb51daa832",
            "11a888709e773131551013c57d807e0a10d6314fcc957af47216d64826307dc8",
        ]

    def test_a_roundtrip_builds_two_streams_to_encode_and_one_to_decode(self, monkeypatch):
        built = Counter()
        count_calls(monkeypatch, np.random, "Philox", built)
        branches = set()
        for cb in golden_books():
            for x in range(2**cb.n):
                for rep in (0, 2**64 - 1):
                    built.clear()
                    msg = cv.rac_encode(cb, x, GOLDEN_SEED, rep)
                    assert built["Philox"] == 2
                    built.clear()
                    cv.rac_decode(cb, msg, 1, GOLDEN_SEED, rep)
                    assert built["Philox"] == 1
                    branches.add(msg.sent_index == FAIL_INDEX)
        assert branches == {True, False}

    def test_identity_code_decodes_exactly_on_acceptance(self):
        q = build_identity_encoding(3)
        cb = cv.build_rac(q, eta=0.2, seed=1)
        x = 0b101
        for rep in range(40):
            msg = cv.rac_encode(cb, x, shared_seed=9, replicate=rep)
            assert msg.total_bits == cb.total_message_bits
            if msg.sent_index != FAIL_INDEX:
                got = [cv.rac_decode(cb, msg, i, 9, rep) for i in (1, 2, 3)]
                assert got == [1, 0, 1]

    def test_decode_matches_protocol_transcript(self):
        cb = cv.build_rac(build_standard_2to1(), eta=0.2, seed=3)
        for rep in range(30):
            assert_decodes_base_transcript(cb, 0b10, 21, rep)

    @given(
        code=st.sampled_from(sorted(DECODE_CODES)),
        eta=st.sampled_from([0.2, 0.3]),
        x=st.integers(min_value=0),
        seed=st.integers(min_value=0, max_value=2**128 - 1),
        replicate=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_identity_property(self, code, eta, x, seed, replicate):
        cb = decode_codebook(code, eta)
        assert_decodes_base_transcript(cb, x % 2**cb.n, seed, replicate)

    def test_first_roundtrip_builds_no_permutation_table(self):
        # |S| = 100 000 shifts: a (|S|, 2^n) int64 table would be 25 MB
        cb = cv.build_rac(build_identity_encoding(5), eta=0.02, seed=0)
        assert cb.size_s == 100_000
        tracemalloc.start()
        try:
            msg = cv.rac_encode(cb, 0b10110, shared_seed=4, replicate=1)
            cv.rac_decode(cb, msg, 3, 4, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_encode_deterministic(self):
        q = build_standard_2to1()
        cb = cv.build_rac(q, eta=0.3, seed=3)
        a = cv.rac_encode(cb, 2, shared_seed=5, replicate=7)
        b = cv.rac_encode(cb, 2, shared_seed=5, replicate=7)
        assert a == b

    def test_empirical_success_tracks_exact_table(self):
        q = build_standard_2to1()
        cb = cv.build_rac(q, eta=0.2, seed=3)
        val = cv.validate_rac(cb, q)
        x = 0b01
        reps = 3000
        hits = np.zeros(2)
        for rep in range(reps):
            msg = cv.rac_encode(cb, x, shared_seed=33, replicate=rep)
            for i in (1, 2):
                hits[i - 1] += cv.rac_decode(cb, msg, i, 33, rep) == (x >> (2 - i)) & 1
        emp = hits / reps
        for i in range(2):
            exact = val.table[i, x]
            sigma = math.sqrt(exact * (1 - exact) / reps)
            assert abs(emp[i] - exact) <= 4 * sigma

    @pytest.mark.parametrize("seed, replicate", [(-1, 0), (0, -1), (2**128, 0), (0, 2**64)])
    def test_seed_or_replicate_out_of_range_is_a_domain_error(self, seed, replicate):
        cb = cv.build_rac(build_standard_2to1(), eta=0.3, seed=3)
        with pytest.raises(DomainError, match=r"2\^(128|64)"):
            cv.rac_encode(cb, 1, shared_seed=seed, replicate=replicate)
        for sent in (FAIL_INDEX, 1):
            msg = cv.RacMessage(s_index=0, sent_index=sent, total_bits=cb.total_message_bits)
            with pytest.raises(DomainError, match=r"2\^(128|64)"):
                cv.rac_decode(cb, msg, 1, seed, replicate)

    def test_decode_rejects_bad_bit_index(self):
        q = build_standard_2to1()
        cb = cv.build_rac(q, eta=0.3, seed=3)
        msg = cv.rac_encode(cb, 1, shared_seed=0)
        with pytest.raises(DomainError):
            cv.rac_decode(cb, msg, 0, 0)
        with pytest.raises(DomainError):
            cv.rac_decode(cb, msg, 3, 0)

    def test_decode_rejects_a_message_the_sender_cannot_send(self):
        cb = cv.build_rac(build_standard_2to1(), eta=0.2, seed=3)
        size_s, n_cap = cb.size_s, cb.scheme.n_cap
        for s_index, sent, match in [
            (size_s, 1, rf"shift index must lie in 0\.\.{size_s - 1}, got {size_s}"),
            (0, -3, rf"sample index must lie in 0\.\.{n_cap}, got -3"),
            (0, n_cap + 5, rf"sample index must lie in 0\.\.{n_cap}, got {n_cap + 5}"),
        ]:
            msg = cv.RacMessage(s_index=s_index, sent_index=sent, total_bits=cb.total_message_bits)
            with pytest.raises(DomainError, match=match):
                cv.rac_decode(cb, msg, 1, 0)
        # the largest indices the sender can emit still decode
        msg = cv.RacMessage(s_index=size_s - 1, sent_index=n_cap, total_bits=cb.total_message_bits)
        assert cv.rac_decode(cb, msg, 1, 0) in (0, 1)
