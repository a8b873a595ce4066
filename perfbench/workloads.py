"""The four workloads, each a closed loop of one client driving qraclab's
public API: set-up builds the inputs from the seed, then operations run one
after another, each checked by ``audit`` once its timing has ended.

A run attempts whole rounds of ``round_size`` operations, so every run sees
the same mix of inputs.  ``tail_pct`` is the percentile reported as
``op_tail_ref``; ``min_ops`` is the smallest run that leaves at least ten
operations beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import audit
import qraclab
from qraclab.corpus import DEFAULT_P_MIN

# The certify corpus is fixed: solver iterations range from 1 to 60 from one
# code to the next, so a corpus drawn from each run's seed, at the size a
# run can hold, would move the medians by more than their bounds.  The run's
# seed sets the order in which the corpus is replayed.
#
# Each round of certify and convert holds an odd number of kinds of input,
# equally often, so the median falls among the samples of one kind rather
# than on the gap between two kinds of different cost.
CERTIFY_CORPUS_SEED = 20250601
CERTIFY_CORPUS_SIZE = 41
CERTIFY_EPS = 0.02
CONVERT_ETAS = (0.3, 0.2)
CONVERT_EXTRA_ETA = 0.1  # the standard code only, where |S| is largest
TRANSMIT_ETA = 0.2
TRANSMIT_REPLICATES = 2


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def nondegenerate_codes(n: int, m: int, count: int, first_seed: int) -> list[qraclab.Qrac]:
    """Haar-random codes kept by the corpus rule: worst-case p above
    DEFAULT_P_MIN, trying seeds first_seed, first_seed + 1, ..."""
    out = []
    attempt = first_seed
    while len(out) < count:
        q = qraclab.build_random_qrac(n, m, seed=attempt)
        attempt += 1
        if q.claimed_p > DEFAULT_P_MIN:
            out.append(q)
    return out


@dataclass
class CodeFacts:
    """What the checks need of a code, recomputed apart from the program."""

    states: np.ndarray
    p: float

    @classmethod
    def of(cls, q: qraclab.Qrac) -> "CodeFacts":
        states = np.stack([rho.mat for rho in q.encoder])
        f0s = np.stack([dec.elements[0] for dec in q.decoders])
        p = audit.worst_success(states, f0s)
        if abs(p - q.claimed_p) > audit.TOL:
            raise RuntimeError(f"code claims p = {q.claimed_p}, its decoders reach {p}")
        return cls(states, p)


@dataclass
class Result:
    """One operation's output plus the counters the traced run reads."""

    value: object
    counts: dict = field(default_factory=dict)


class Certify:
    name = "certify"
    round_size = CERTIFY_CORPUS_SIZE
    tail_pct = 90
    min_ops = 100

    def setup(self, seed: int) -> None:
        self.codes = nondegenerate_codes(5, 4, CERTIFY_CORPUS_SIZE, CERTIFY_CORPUS_SEED)
        self.facts = [CodeFacts.of(q) for q in self.codes]
        self.order = _rng(seed, 1).permutation(len(self.codes))

    def op(self, k: int) -> Result:
        j = int(self.order[k % len(self.codes)])
        sol = qraclab.solve_worstcase(self.codes[j], eps=CERTIFY_EPS)
        return Result((j, sol), {"certificates": 1, "iterations": sol.iterations})

    def audit(self, res: Result) -> list[str]:
        j, sol = res.value
        elements = np.stack(sol.measurement.elements)
        return self._check(j, sol, elements, sol.worst_x_value)

    def _check(self, j, sol, elements, worst_value) -> list[str]:
        facts = self.facts[j]
        out = audit.check_certificate(
            facts.states, facts.p, self.codes[j].n, CERTIFY_EPS, elements, worst_value
        )
        if not (sol.converged and sol.certified):
            out.append("solver returned an uncertified measurement")
        return out

    def corrupted_audit(self, res: Result) -> list[str]:
        j, sol = res.value
        elements = np.stack(sol.measurement.elements).copy()
        elements[0] += 1e-6 * np.eye(elements.shape[1])
        return self._check(j, sol, elements, sol.worst_x_value)


class DecodeLarge:
    name = "decode_large"
    round_size = 2
    tail_pct = 60
    min_ops = 26

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.base = qraclab.build_standard_2to1()

    def op(self, k: int) -> Result:
        if k % 2 == 0:
            q = qraclab.build_tensor_power(self.base, 5)
        else:
            q = qraclab.build_random_qrac(10, 5, seed=self.seed * 100_003 + k // 2)
        ens = qraclab.Ensemble.uniform(q)
        pg = qraclab.build_pgm(ens, full_table=True)
        report = qraclab.expected_hamming_exact(q, ens, pg)
        full_success = qraclab.success_prob_full(ens, pg)
        ident = qraclab.identification_bound_check(q, pg.full)
        return Result((k % 2 == 0, q, pg, report, full_success, ident))

    def audit(self, res: Result) -> list[str]:
        return self._check(res, np.stack(res.value[2].full.elements))

    def _check(self, res: Result, full: np.ndarray) -> list[str]:
        tensor_power, q, pg, report, full_success, ident = res.value
        facts = CodeFacts.of(q)
        out = audit.check_decoding(
            facts.states,
            facts.p,
            q.n,
            q.m,
            full,
            report.expected_dh,
            report.per_bit_error,
            full_success,
            ident.lhs,
            tensor_power,
        )
        if not ident.ok:
            out.append("identification_bound_check reports a violation")
        return out

    def corrupted_audit(self, res: Result) -> list[str]:
        full = np.stack(res.value[2].full.elements).copy()
        full[5] += 1e-6 * np.eye(full.shape[1])
        return self._check(res, full)


def codebook_arrays(cb) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each shift's channel table, reference distribution and attempt cap."""
    tables = np.stack([sc.channel.table for sc in cb.schemes])
    zs = np.stack([sc.z for sc in cb.schemes])
    n_caps = np.array([sc.n_cap for sc in cb.schemes])
    return tables, zs, n_caps


class Convert:
    name = "convert"
    tail_pct = 90
    min_ops = 100

    def setup(self, seed: int) -> None:
        self.seed = seed
        std = qraclab.build_standard_2to1()
        first = seed * 100_003
        self.codes = [
            std,
            qraclab.build_tensor_power(std, 2),
            qraclab.build_identity_encoding(3),
            qraclab.build_identity_encoding(4),
            nondegenerate_codes(4, 3, 1, first)[0],
            nondegenerate_codes(5, 4, 1, first)[0],
        ]
        self.facts = [CodeFacts.of(q) for q in self.codes]
        self.kinds = [(j, eta) for eta in CONVERT_ETAS for j in range(len(self.codes))]
        self.kinds.append((0, CONVERT_EXTRA_ETA))
        self.round_size = len(self.kinds)

    def op(self, k: int) -> Result:
        j, eta = self.kinds[k % self.round_size]
        q = self.codes[j]
        cb = qraclab.build_rac(q, eta, seed=self.seed * 1_000_003 + k)
        val = qraclab.validate_rac(cb, q)
        counts = {"codebooks": 1, "shifts": cb.size_s, "newman_attempts": cb.newman_attempts}
        return Result((j, eta, cb, val), counts)

    def audit(self, res: Result) -> list[str]:
        return self._check(res, res.value[3].table)

    def _check(self, res: Result, validated: np.ndarray) -> list[str]:
        j, eta, cb, val = res.value
        tables, zs, n_caps = codebook_arrays(cb)
        exact = audit.codebook_success(tables, zs, n_caps)
        out = audit.check_codebook(
            self.facts[j].p,
            cb.m,
            eta,
            tables,
            exact,
            validated,
            val.min_success,
            cb.total_message_bits,
        )
        if not val.ok:
            out.append("validate_rac reports a success below its floor")
        return out

    def corrupted_audit(self, res: Result) -> list[str]:
        validated = res.value[3].table.copy()
        validated[0, 0] += 1e-6
        return self._check(res, validated)


class Transmit:
    name = "transmit"
    round_size = 4
    tail_pct = 90
    min_ops = 100

    def setup(self, seed: int) -> None:
        self.seed = seed
        code = nondegenerate_codes(5, 4, 1, seed * 100_003)[0]
        std = qraclab.build_standard_2to1()
        self.books = [
            qraclab.build_rac(q, TRANSMIT_ETA, seed=seed * 1_000_003 + j)
            for j, q in enumerate((code, std))
        ]
        self.setup_counts = {
            "shifts": sum(cb.size_s for cb in self.books),
            "newman_attempts": sum(cb.newman_attempts for cb in self.books),
        }
        self.pairs = [
            (b, x, i)
            for b, cb in enumerate(self.books)
            for x in range(2**cb.n)
            for i in range(1, cb.n + 1)
        ]
        self.exact = None

    def op(self, k: int) -> Result:
        shared_seed = self.seed * 1_000_003 + 7
        size = len(self.pairs)
        sent = []
        for r in range(TRANSMIT_REPLICATES):
            for j, (b, x, i) in enumerate(self.pairs):
                cb = self.books[b]
                replicate = (k * TRANSMIT_REPLICATES + r) * size + j
                msg = qraclab.rac_encode(cb, x, shared_seed, replicate)
                bit = qraclab.rac_decode(cb, msg, i, shared_seed, replicate)
                sent.append((b, x, i, msg, bit))
        return Result(sent, self._counts(sent))

    def _counts(self, sent) -> dict:
        made = needed = fails = 0
        for b, _, _, msg, _ in sent:
            n_cap = self.books[b].schemes[msg.s_index].n_cap
            if msg.sent_index == 0:
                fails += 1
                made += n_cap
                needed += n_cap
            else:
                made += 2 * n_cap
                needed += 2 * msg.sent_index
        return {
            "messages": len(sent),
            "draws_made": made,
            "draws_needed": needed,
            "fail_flags": fails,
        }

    def _exact_tables(self) -> list[np.ndarray]:
        if self.exact is None:
            self.exact = [audit.codebook_success(*codebook_arrays(cb)) for cb in self.books]
        return self.exact

    def audit(self, res: Result) -> list[str]:
        return self._check(res.value)

    def _check(self, sent) -> list[str]:
        exact = self._exact_tables()
        correct = 0
        expected = variance = 0.0
        over = 0
        for b, x, i, msg, bit in sent:
            cb = self.books[b]
            p = float(exact[b][i - 1, x])
            expected += p
            variance += p * (1.0 - p)
            correct += int(bit == ((x >> (cb.n - i)) & 1))
            budget = audit.message_budget(cb.m, cb.size_s, cb.eta)
            scheme = cb.schemes[msg.s_index]
            fits = (
                msg.total_bits <= budget
                and 0 <= msg.sent_index < 2**scheme.index_bits
                and msg.s_index < 2**cb.index_bits_s
            )
            over += not fits
        return audit.check_transmission(correct, expected, variance, over)

    def corrupted_audit(self, res: Result) -> list[str]:
        return self._check([(b, x, i, msg, 1 - bit) for b, x, i, msg, bit in res.value])


WORKLOADS = {w.name: w for w in (Certify, DecodeLarge, Convert, Transmit)}
