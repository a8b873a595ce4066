"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line (visible with pytest -s or in captured output).  Thresholds and
runtime caps are part of the criteria, so they are asserted, not logged."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from qraclab import corpus
from qraclab.cli import main
from qraclab.compression import (
    build_scheme,
    estimate_acceptance_rate,
    exact_output_distribution,
)
from qraclab.conversion import build_rac, effective_channel, validate_rac
from qraclab.decoding import expected_hamming_exact, identification_bound_check
from qraclab.info import (
    ClassicalChannel,
    distance_conditioning_check,
    max_channel_capacity,
    max_channel_capacity_lp,
    qubit_lower_bound,
)
from qraclab.minimax import solve_worstcase
from qraclab.pgm import build_pgm, helstrom_success, per_bit_success, success_prob_full
from qraclab.qrac import (
    Ensemble,
    build_identity_encoding,
    build_standard_2to1,
    build_tensor_power,
    validate_qrac,
)


def _verdict(num, label, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_worked_example(capsys):
    start = time.perf_counter()
    code = main(["demo-2to1", "--deterministic"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    ok = (
        code == 0
        and abs(report["p_qrac"] - math.cos(math.pi / 8) ** 2) <= 1e-9
        and abs(report["p_pgm"] - 0.5) <= 1e-9
        and abs(report["per_bit"][0] - 0.75) <= 1e-9
        and abs(report["per_bit"][1] - 0.75) <= 1e-9
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict(1, f"worked example via CLI ({elapsed:.2f}s)", ok)


def test_criterion_02_two_outcome_lower_bound():
    start = time.perf_counter()
    ensembles = corpus.random_two_state_ensembles(500, seed=0)
    worst_margin = np.inf
    for ens in ensembles:
        pg = build_pgm(ens, full_table=True)
        p_pgm = success_prob_full(ens, pg)
        p_max = helstrom_success(ens)[0]
        worst_margin = min(worst_margin, p_pgm - (p_max**2 + (1.0 - p_max) ** 2))
    q = build_standard_2to1()
    ens = Ensemble.uniform(q)
    bit_value = per_bit_success(ens, build_pgm(ens), 1)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-8 and abs(bit_value - 0.75) <= 1e-9 and elapsed < 10.0
    _verdict(
        2, f"500 ensembles, min margin {worst_margin:.2e} ({elapsed:.1f}s)", ok
    )


def test_criterion_03_expected_hamming_bound(reference_codes):
    start = time.perf_counter()
    worst_excess = -np.inf
    for idx, q in enumerate(reference_codes):
        priors = [np.full(2**q.n, 2.0**-q.n)]
        priors += corpus.random_priors(2**q.n, 20, seed=idx)
        for prior in priors:
            ens = Ensemble(prior, q.encoder)
            rep = expected_hamming_exact(q, ens, build_pgm(ens))
            worst_excess = max(worst_excess, rep.expected_dh - rep.bound)
    q = build_standard_2to1()
    std = expected_hamming_exact(
        q, Ensemble.uniform(q), build_pgm(Ensemble.uniform(q))
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_excess <= 1e-8
        and abs(std.expected_dh - 0.5) <= 1e-9
        and elapsed < 120.0
    )
    _verdict(
        3,
        f"{len(reference_codes)} codes x 21 priors, max excess {worst_excess:.2e} "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_04_worstcase_solver():
    start = time.perf_counter()
    base = build_standard_2to1()
    codes = [base, build_tensor_power(base, 2), build_tensor_power(base, 3)]
    codes += corpus.random_qrac_corpus(50, seed=0, n_max=5, m_max=3)
    eps = 0.02
    worst_gap_share = -np.inf
    all_certified = True
    for q in codes:
        sol = solve_worstcase(q, eps=eps)
        bound = 2.0 * q.claimed_p * (1.0 - q.claimed_p) * q.n
        all_certified &= sol.converged and sol.worst_x_value <= bound + eps * q.n
        worst_gap_share = max(worst_gap_share, sol.gap / q.n)
    elapsed = time.perf_counter() - start
    ok = all_certified and worst_gap_share <= 0.05 and elapsed < 300.0
    _verdict(
        4,
        f"{len(codes)} games certified, max gap share {worst_gap_share:.3f} "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_05_identification_bound(reference_codes):
    start = time.perf_counter()
    worst_excess = -np.inf
    for q in reference_codes:
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        res = identification_bound_check(q, pg.full)
        worst_excess = max(worst_excess, res.lhs - res.rhs)
    q = build_standard_2to1()
    std = identification_bound_check(
        q, build_pgm(Ensemble.uniform(q), full_table=True).full
    )
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-8 and abs(std.lhs - 2.0) <= 1e-9 and elapsed < 30.0
    _verdict(
        5, f"max excess {worst_excess:.2e}, standard lhs {std.lhs:.12f} "
        f"({elapsed:.1f}s)", ok,
    )


def test_criterion_06_capacity_oracle(channel_corpus):
    start = time.perf_counter()
    worst_mismatch = 0.0
    for ch in channel_corpus:
        closed = max_channel_capacity(ch).value
        worst_mismatch = max(worst_mismatch, abs(closed - max_channel_capacity_lp(ch)))
    identity4 = max_channel_capacity(ClassicalChannel(np.eye(4))).value
    constant = max_channel_capacity(
        ClassicalChannel(np.tile(np.full(4, 0.25), (4, 1)))
    ).value
    ratio17 = max_channel_capacity(
        ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    ).value
    elapsed = time.perf_counter() - start
    ok = (
        worst_mismatch <= 1e-9
        and abs(identity4 - 2.0) <= 1e-9
        and abs(constant) <= 1e-9
        and abs(ratio17 - math.log2(1.7)) <= 1e-9
        and elapsed < 60.0
    )
    _verdict(
        6,
        f"closed form vs LP on {len(channel_corpus)} channels, "
        f"max mismatch {worst_mismatch:.2e} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_07_compression_protocol(channel_corpus):
    start = time.perf_counter()
    channels = list(channel_corpus) + [
        ClassicalChannel(np.eye(4)),
        ClassicalChannel(np.tile(np.full(4, 0.25), (4, 1))),
        ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]])),
    ]
    runs = 100_000
    worst_tv_excess = -np.inf
    worst_bits_excess = -np.inf
    worst_sigmas = 0.0
    for idx, ch in enumerate(channels):
        for eta in (0.1, 0.05):
            scheme = build_scheme(ch, eta)
            tv = max(
                exact_output_distribution(scheme, x).tv_error
                for x in range(ch.in_size)
            )
            worst_tv_excess = max(worst_tv_excess, tv - eta)
            cap = (
                math.ceil(scheme.c_max)
                + math.ceil(math.log2(math.log(1.0 / eta)))
                + 2
            )
            worst_bits_excess = max(worst_bits_excess, scheme.index_bits - cap)
            x_star = int(np.argmax(scheme.a))
            p = 2.0 ** -scheme.a[x_star]
            est = estimate_acceptance_rate(scheme, x_star, seed=idx, runs=runs)
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / runs)
            worst_sigmas = max(worst_sigmas, abs(est - p) / sigma)
    elapsed = time.perf_counter() - start
    ok = (
        worst_tv_excess <= 0.0
        and worst_bits_excess <= 0
        and worst_sigmas <= 4.0
        and elapsed < 60.0
    )
    _verdict(
        7,
        f"exact tv excess {worst_tv_excess:.2e}, acceptance max {worst_sigmas:.2f} "
        f"sigma ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_08_end_to_end_conversion():
    start = time.perf_counter()
    codes = [build_identity_encoding(n) for n in range(1, 5)]
    codes.append(build_standard_2to1())
    all_ok = True
    worst_slack = np.inf
    worst_bits_excess = -np.inf
    for q in codes:
        for eta in (0.3, 0.2):
            cb = build_rac(q, eta=eta, seed=0)
            val = validate_rac(cb, q)
            floor = 1.0 - 2.0 * q.claimed_p * (1.0 - q.claimed_p) - eta
            budget = (
                q.m
                + math.ceil(math.log2(len(cb.s_set)))
                + math.ceil(math.log2(math.log(2.0 / eta)))
                + 2
            )
            all_ok &= bool(val.ok)
            worst_slack = min(worst_slack, val.min_success - floor)
            worst_bits_excess = max(
                worst_bits_excess, cb.total_message_bits - budget
            )
    elapsed = time.perf_counter() - start
    ok = (
        all_ok
        and worst_slack >= -1e-8
        and worst_bits_excess <= 0
        and elapsed < 600.0
    )
    _verdict(
        8,
        f"{len(codes)} codes x 2 etas, min slack {worst_slack:.4f}, "
        f"bits excess {worst_bits_excess} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_09_qubit_bound_consistency(reference_codes):
    start = time.perf_counter()
    worst_slack = np.inf
    for q in reference_codes:
        worst_slack = min(
            worst_slack, q.m - qubit_lower_bound(q.n, validate_qrac(q)).from_hamming
        )
    chain_ok = True
    base = build_standard_2to1()
    for q in (base, build_tensor_power(base, 2)):
        joint = effective_channel(q).table / 2**q.n
        rep = distance_conditioning_check(joint, q.n)
        chain_ok &= rep.h_x_given_yd <= rep.h_x_given_y + 1e-9
        chain_ok &= rep.h_x_given_y <= rep.h_x_given_yd + rep.side_information + 1e-9
    elapsed = time.perf_counter() - start
    ok = worst_slack >= -1e-8 and chain_ok and elapsed < 60.0
    _verdict(
        9,
        f"min slack {worst_slack:.3f} qubits, entropy chain ok ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_10_deterministic_reports():
    commands = [
        ["demo-2to1", "--deterministic"],
        ["suite", "--kind", "pgm", "--seeds", "6", "--deterministic"],
        ["suite", "--kind", "hamming", "--seeds", "4", "--deterministic"],
        ["suite", "--kind", "minimax", "--seeds", "3", "--deterministic"],
        ["suite", "--kind", "info", "--seeds", "5", "--deterministic"],
        ["suite", "--kind", "compress", "--seeds", "4", "--deterministic"],
        ["suite", "--kind", "convert", "--deterministic"],
        ["suite", "--kind", "bounds", "--seeds", "4", "--deterministic"],
    ]
    identical = True
    for argv in commands:
        cmd = [sys.executable, "-m", "qraclab.cli", *argv]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        identical &= first.stdout == second.stdout
    _verdict(10, f"{len(commands)} commands byte-identical across reruns", identical)
