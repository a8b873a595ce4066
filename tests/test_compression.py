import hashlib
import math

import numpy as np
import pytest

from qraclab.compression import (
    FAIL_INDEX,
    build_scheme,
    estimate_acceptance_rate,
    exact_output_distribution,
    run_protocol,
)
from qraclab.errors import DomainError
from qraclab.info import ClassicalChannel
from qraclab.rng import TAG_BOB, TAG_ENCODE, TAG_SHARED, counter_stream


def identity_channel(k):
    return ClassicalChannel(np.eye(k))


def constant_channel(k, row=None):
    if row is None:
        row = np.full(k, 1.0 / k)
    return ClassicalChannel(np.tile(row, (k, 1)))


def random_channel(rng, n_in, n_out, zero_frac=0.0):
    table = rng.dirichlet(np.ones(n_out), size=n_in)
    if zero_frac > 0.0:
        mask = rng.random((n_in, n_out)) < zero_frac
        mask[np.arange(n_in), table.argmax(axis=1)] = False
        table = np.where(mask, 0.0, table)
        table /= table.sum(axis=1, keepdims=True)
    return ClassicalChannel(table)


class TestBuildScheme:
    def test_identity_four_outputs(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        assert s.c_max == pytest.approx(2.0, abs=1e-12)
        assert s.n_cap == 10
        assert s.index_bits == 4
        np.testing.assert_allclose(s.z, np.full(4, 0.25), atol=1e-12)
        np.testing.assert_allclose(s.a, np.full(4, 2.0), atol=1e-12)

    def test_constant_channel(self):
        s = build_scheme(constant_channel(5), eta=0.3)
        assert s.c_max == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(s.a, np.zeros(5), atol=1e-12)
        assert s.n_cap >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_accept_table_is_the_per_draw_formula(self, seed):
        """Each entry is E(x)(y) / (ratio[x] Z(y)) as computed per draw, and 0
        on an output that no input reaches, where Z(y) = 0."""
        rng = np.random.default_rng(seed)
        table = rng.dirichlet(np.ones(6), size=5)
        table[:, 2] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        s = build_scheme(ClassicalChannel(table), eta=0.1)
        assert s.z[2] == 0.0
        draws = np.arange(6)
        z = s.z[draws]
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.stack(
                [np.where(z > 0.0, table[x, draws] / (s.ratio[x] * z), 0.0) for x in range(5)]
            )
        np.testing.assert_array_equal(s.accept, expected)
        assert not s.accept[:, 2].any()

    def test_two_row_example(self):
        ch = ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        s = build_scheme(ch, eta=0.05)
        assert s.n_cap == 6
        assert s.index_bits == 3
        np.testing.assert_allclose(s.z, [0.9 / 1.7, 0.8 / 1.7], atol=1e-15)
        np.testing.assert_allclose(s.a, [math.log2(1.7)] * 2, atol=1e-12)

    def test_eta_domain(self):
        ch = identity_channel(2)
        for eta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                build_scheme(ch, eta)

    def test_dominance_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            ch = random_channel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                                zero_frac=float(rng.random() * 0.3))
            s = build_scheme(ch, eta=0.1)
            bound = s.ratio[:, None] * s.z[None, :]
            assert np.all(ch.table <= bound + 1e-12)
            assert np.all(s.a <= s.c_max + 1e-9)

    def test_length_bound(self):
        rng = np.random.default_rng(11)
        for eta in (0.05, 0.1, 1 / math.e):
            for _ in range(25):
                ch = random_channel(rng, int(rng.integers(2, 10)), int(rng.integers(2, 10)))
                s = build_scheme(ch, eta)
                cap = math.ceil(s.c_max) + math.ceil(math.log2(math.log(1 / eta))) + 2
                assert s.index_bits <= cap


def zero_mass_scheme():
    """A 6 -> 7 channel whose outputs 3 and 6, the last one, no input reaches."""
    rng = np.random.default_rng(5)
    table = rng.dirichlet(np.ones(7), size=6)
    table[:, [3, 6]] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    return build_scheme(ClassicalChannel(table), eta=0.3)


def trailing_zero_mass_scheme():
    table = np.random.default_rng(9).dirichlet(np.ones(5), size=4)
    table[:, 3:] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    return build_scheme(ClassicalChannel(table), eta=0.2)


@pytest.mark.parametrize(
    "make",
    [
        zero_mass_scheme,
        trailing_zero_mass_scheme,
        lambda: build_scheme(identity_channel(4), eta=0.1),
        lambda: build_scheme(ClassicalChannel(np.ones((3, 1))), eta=0.1),
    ],
)
def test_bins_search_is_the_clamped_search_of_the_cumulative_mass(make):
    """Sampling searches ``bins`` where it searched the whole cumulative mass
    and clamped the index to the last outcome; both pick the same outcome,
    also for u at a cumulative value, just below one, 0 and 1 - 2^-53."""
    s = make()
    cum = np.cumsum(s.z)
    u = np.concatenate(
        [cum, np.nextafter(cum, 0.0), [0.0, 1.0 - 2.0**-53],
         np.random.default_rng(0).random(1000)]
    )
    want = np.minimum(np.searchsorted(cum, u, side="right"), s.out_size - 1)
    np.testing.assert_array_equal(s.bins.searchsorted(u, "right"), want)


class TestRunProtocol:
    def test_transcripts_match_the_recorded_digest(self):
        """A SHA-256 of every transcript's (sent_index, output_y) and of each
        input's acceptance-rate estimate: any change to a draw moves it."""
        s = zero_mass_scheme()
        h = hashlib.sha256()
        fails = 0
        for x in range(s.in_size):
            for rep in range(40):
                r = run_protocol(s, x, 2**100 + 12345, rep)
                fails += r.sent_index == FAIL_INDEX
                h.update(f"{r.sent_index},{r.output_y};".encode())
            h.update(estimate_acceptance_rate(s, x, seed=3, runs=2000).hex().encode())
        assert 0 < fails < 240
        assert h.hexdigest() == "68a7ff575755d8cf39cbb4339a7d65b106f48e499e54245c7a568ea2490fe8a1"

    def test_constant_channel_always_first_index(self):
        s = build_scheme(constant_channel(3), eta=0.2)
        for seed in range(20):
            r = run_protocol(s, x=1, shared_seed=seed)
            assert r.sent_index == 1
            assert 0 <= r.output_y < 3

    def test_deterministic_replay(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        a = run_protocol(s, x=2, shared_seed=99, replicate=3)
        b = run_protocol(s, x=2, shared_seed=99, replicate=3)
        assert a == b
        c = run_protocol(s, x=2, shared_seed=99, replicate=4)
        assert (a.sent_index, a.output_y) != (c.sent_index, c.output_y) or True

    def test_identity_accepted_output_is_input(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        hits = 0
        for rep in range(200):
            r = run_protocol(s, x=3, shared_seed=5, replicate=rep)
            if r.sent_index != FAIL_INDEX:
                hits += 1
                assert r.output_y == 3
        assert hits > 150

    def test_message_bits_and_index_range(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        for rep in range(100):
            r = run_protocol(s, x=0, shared_seed=1, replicate=rep)
            assert r.message_bits == s.index_bits
            assert FAIL_INDEX <= r.sent_index <= s.n_cap

    def test_failure_path_uses_private_fallback(self):
        # tiny attempt budget: eta close to 1 gives n_cap = 1 while the
        # acceptance chance per attempt is only 1/8
        s = build_scheme(identity_channel(8), eta=0.88)
        assert s.n_cap == 2
        fails = 0
        seen = set()
        for rep in range(300):
            r = run_protocol(s, x=6, shared_seed=13, replicate=rep)
            if r.sent_index == FAIL_INDEX:
                fails += 1
                seen.add(r.output_y)
            else:
                assert r.output_y == 6
        assert fails > 150
        assert len(seen) >= 4

    def test_bad_input_rejected(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        with pytest.raises(DomainError):
            run_protocol(s, x=4, shared_seed=0)
        with pytest.raises(DomainError):
            run_protocol(s, x=-1, shared_seed=0)

    @pytest.mark.parametrize("seed, replicate", [(-1, 0), (0, -1), (2**128, 0), (0, 2**64)])
    def test_seed_or_replicate_out_of_range_is_a_domain_error(self, seed, replicate):
        s = build_scheme(identity_channel(4), eta=0.1)
        with pytest.raises(DomainError, match=r"2\^(128|64)"):
            run_protocol(s, x=1, shared_seed=seed, replicate=replicate)


class TestCounterStream:
    def test_reproducible_and_distinct_paths_independent(self):
        def raw(seed, *path):
            return counter_stream(seed, *path).bit_generator.random_raw(4096)

        base = raw(7, TAG_SHARED, 42, 0)
        np.testing.assert_array_equal(base, raw(7, TAG_SHARED, 42, 0))
        # the same stream as Philox keyed by the seed at counter (0, *path)
        ref = np.random.Philox(key=7, counter=(TAG_SHARED << 64) | (42 << 128))
        np.testing.assert_array_equal(base, ref.random_raw(4096))
        u = counter_stream(7, TAG_SHARED, 42, 0).random(10_000)
        for other in [(7, TAG_SHARED, 43, 0), (7, TAG_SHARED, 42, 1), (7, TAG_BOB, 42, 0),
                      (7, TAG_ENCODE, 42), (8, TAG_SHARED, 42, 0)]:
            # no 64-bit word in common, so no stream is a shifted copy of another
            assert np.intersect1d(base, raw(*other)).size == 0
            v = counter_stream(*other).random(10_000)
            assert abs(np.corrcoef(u, v)[0, 1]) < 0.05  # 5 sigma
            assert abs(np.corrcoef(u[1:], v[:-1])[0, 1]) < 0.05

    @pytest.mark.parametrize(
        "seed, path, match",
        [
            (-1, (0,), "seed"),
            (2**128, (0,), "seed"),
            (0, (-1,), "path word"),
            (0, (1, 2**64), "path word"),
            (0, (1, 2, 3, 4), "at most 3 words"),
        ],
    )
    def test_out_of_range_is_a_domain_error(self, seed, path, match):
        with pytest.raises(DomainError, match=match):
            counter_stream(seed, *path)
        assert counter_stream(2**128 - 1, 2**64 - 1, 0, 2**64 - 1).random() < 1.0


class TestExactOutput:
    def test_constant_channel_no_error(self):
        s = build_scheme(constant_channel(4), eta=0.25)
        out = exact_output_distribution(s, x=2)
        assert out.fail_prob == 0.0
        assert out.tv_error == 0.0
        np.testing.assert_allclose(out.dist, np.full(4, 0.25), atol=1e-15)

    def test_identity_fail_prob_exact(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        out = exact_output_distribution(s, x=0)
        assert out.fail_prob == (3 / 4) ** 10
        assert out.fail_prob == pytest.approx(0.05631351470947265625, abs=0)
        expected = (1 - out.fail_prob) * np.eye(4)[0] + out.fail_prob / 4
        np.testing.assert_allclose(out.dist, expected, atol=1e-15)
        assert out.tv_error == pytest.approx(out.fail_prob * 0.75, abs=1e-15)

    def test_error_within_eta_everywhere(self):
        rng = np.random.default_rng(23)
        for eta in (0.3, 0.1, 0.05):
            for _ in range(20):
                ch = random_channel(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)),
                                    zero_frac=float(rng.random() * 0.25))
                s = build_scheme(ch, eta)
                for x in range(ch.in_size):
                    out = exact_output_distribution(s, x)
                    assert out.tv_error <= out.fail_prob + 1e-15
                    assert out.fail_prob <= eta + 1e-12

    def test_conditional_acceptance_law_is_the_channel_row(self):
        # accepted-sample law: z(y) * accept_p(y) renormalized equals E(x)
        rng = np.random.default_rng(31)
        for _ in range(25):
            ch = random_channel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                                zero_frac=float(rng.random() * 0.3))
            s = build_scheme(ch, eta=0.1)
            for x in range(ch.in_size):
                with np.errstate(divide="ignore", invalid="ignore"):
                    accept_p = np.where(s.z > 0, ch.row(x) / (s.ratio[x] * s.z), 0.0)
                joint = s.z * accept_p
                total = joint.sum()
                assert total == pytest.approx(1.0 / s.ratio[x], abs=1e-12)
                np.testing.assert_allclose(joint / total, ch.row(x), atol=1e-12)


class TestMonteCarlo:
    def test_acceptance_rate_four_sigma(self):
        rng = np.random.default_rng(41)
        for trial in range(6):
            ch = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            s = build_scheme(ch, eta=0.1)
            x = int(rng.integers(ch.in_size))
            p = 1.0 / s.ratio[x]
            runs = 100_000
            est = estimate_acceptance_rate(s, x, seed=trial, runs=runs)
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(est - p) <= 4 * sigma + 1e-12

    def test_batch_histogram_matches_exact_law(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        out = exact_output_distribution(s, x=1)
        runs = [run_protocol(s, x=1, shared_seed=3, replicate=r) for r in range(20_000)]
        sent = np.array([r.sent_index for r in runs])
        ys = np.array([r.output_y for r in runs])
        fail_rate = np.mean(sent == FAIL_INDEX)
        sigma_f = math.sqrt(out.fail_prob * (1 - out.fail_prob) / len(runs))
        assert abs(fail_rate - out.fail_prob) <= 4 * sigma_f
        hist = np.bincount(ys, minlength=4) / len(runs)
        for y in range(4):
            sigma = math.sqrt(max(out.dist[y] * (1 - out.dist[y]), 1e-12) / len(runs))
            assert abs(hist[y] - out.dist[y]) <= 4 * sigma + 1e-9

    def test_batch_agrees_with_scalar_runner_statistics(self):
        s = build_scheme(identity_channel(4), eta=0.1)
        runs = [run_protocol(s, x=2, shared_seed=8, replicate=r) for r in range(50_000)]
        sent = np.array([r.sent_index for r in runs])
        ys = np.array([r.output_y for r in runs])
        assert np.all((sent >= FAIL_INDEX) & (sent <= s.n_cap))
        ok = sent != FAIL_INDEX
        assert np.all(ys[ok] == 2)
