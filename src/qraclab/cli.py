"""Command line driver: the worked 2-bits-into-1-qubit demo, batch
verification suites over seeded corpora, and single-shot runs of the solver,
compressor, converter, and bound calculators.

Reports are versioned JSON (and RFC-4180 CSV) built from check rows; every
checked number carries the threshold and tolerance it was compared against.
Exit status: 0 all checks pass, 1 at least one failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import corpus
from .compression import (
    build_scheme,
    estimate_acceptance_rate,
    exact_output_distribution,
    index_bits_cap,
)
from .conversion import (
    SharedShift,
    build_rac,
    effective_channel,
    full_outcome_table,
    message_bits_budget,
    validate_rac,
)
from .decoding import expected_hamming_exact, identification_bound_check
from .errors import DerandomizationFailedError, DomainError, NotConvergedError, SizeCapError
from .info import (
    ClassicalChannel,
    distance_conditioning_check,
    max_channel_capacity,
    max_channel_capacity_lp,
    qubit_lower_bound,
)
from .linalg import argmax_first
from .minimax import solve_worstcase
from .pgm import build_pgm, helstrom_pmax, per_bit_success, success_prob_full
from .qrac import (
    P_STANDARD,
    Ensemble,
    build_identity_encoding,
    build_random_qrac,
    build_standard_2to1,
    build_tensor_power,
    hamming_budget,
    validate_qrac,
)
from .serialize import SCHEMA_VERSION, dump_json, rows_to_csv

SUITE_KINDS = ("pgm", "hamming", "minimax", "info", "compress", "convert", "bounds", "all")

_CONFIG_TYPES = {
    "kind": str,
    "n": int,
    "m": int,
    "seeds": int,
    "seed": int,
    "jobs": int,
    "max_iters": int,
    "eta": float,
    "eps": float,
    "c_newman": float,
    "p_target": float,
    "format": str,
    "out": str,
    "deterministic": bool,
}

_COMMAND_KEYS = {
    "demo-2to1": {"format", "out", "deterministic"},
    "suite": {
        "kind", "n", "m", "seeds", "seed", "eta", "eps", "c_newman",
        "max_iters", "jobs", "format", "out", "deterministic",
    },
    "convert": {"n", "m", "eta", "seed", "c_newman", "format", "out", "deterministic"},
    "compress": {"n", "m", "eta", "seed", "format", "out", "deterministic"},
    "minimax": {"n", "m", "eps", "seed", "max_iters", "format", "out", "deterministic"},
    "bounds": {"n", "m", "p_target", "format", "out", "deterministic"},
}

# smallest value each integer key accepts, from a flag, a config file or
# QRACLAB_SEED alike
_MINIMUMS = {"n": 1, "m": 1, "seeds": 1, "seed": 0}

_BOOL_WORDS = {
    "true": True, "yes": True, "1": True,
    "false": False, "no": False, "0": False,
}


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------- config


def parse_config_file(path: str, allowed: set[str]) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    out = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: key {key!r} does not apply to this command")
        kind = _CONFIG_TYPES[key]
        try:
            if kind is bool:
                out[key] = _BOOL_WORDS[raw.lower()]
            else:
                out[key] = kind(raw)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value {raw!r} for {key!r}") from exc
    return out


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: explicit flags > config file > QRACLAB_SEED (for the
    seed only) > built-in defaults."""
    allowed = _COMMAND_KEYS[args.command]
    filecfg = parse_config_file(args.config, allowed) if getattr(args, "config", None) else {}
    resolved = {}
    for key in sorted(allowed):
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in filecfg:
            resolved[key] = filecfg[key]
        elif key == "seed" and os.environ.get("QRACLAB_SEED"):
            try:
                resolved[key] = int(os.environ["QRACLAB_SEED"])
            except ValueError as exc:
                raise UsageError(
                    f"QRACLAB_SEED must be an integer, got {os.environ['QRACLAB_SEED']!r}"
                ) from exc
        else:
            resolved[key] = defaults.get(key)
        low = _MINIMUMS.get(key)
        if low is not None and resolved[key] is not None and resolved[key] < low:
            raise UsageError(f"{key} must be at least {low}, got {resolved[key]}")
    return resolved


# ---------------------------------------------------------------- reports


def _check(name, value, threshold, tolerance, direction="<="):
    value = float(value)
    threshold = float(threshold)
    tolerance = float(tolerance)
    if direction == "<=":
        ok = value <= threshold + tolerance
    elif direction == ">=":
        ok = value >= threshold - tolerance
    elif direction == "==":
        ok = abs(value - threshold) <= tolerance
    else:
        raise ValueError(f"bad direction {direction!r}")
    return {
        "check": name,
        "value": value,
        "threshold": threshold,
        "tolerance": tolerance,
        "direction": direction,
        "ok": bool(ok),
    }


def make_report(command: str, config: dict, checks: list[dict], *, deterministic: bool, extra: dict | None = None) -> dict:
    report = {"schema_version": SCHEMA_VERSION, "command": command, "config": config}
    if not deterministic:
        report["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if extra:
        report.update(extra)
    report["checks"] = checks
    failures = [c["check"] for c in checks if not c["ok"]]
    report["ok"] = not failures
    report["failures"] = failures
    return report


def report_to_csv(report: dict, path=None) -> str:
    header = ["check", "value", "threshold", "tolerance", "direction", "ok"]
    rows = [
        [c["check"], c["value"], c["threshold"], c["tolerance"], c["direction"], c["ok"]]
        for c in report["checks"]
    ]
    return rows_to_csv(header, rows, path)


def emit_report(report: dict, fmt: str, out_path: str | None) -> int:
    if out_path:
        dump_json(report, f"{out_path}.json")
        report_to_csv(report, f"{out_path}.csv")
    if fmt == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        sys.stdout.write(dump_json(report))
    return 0 if report["ok"] else 1


def _parallel_map(fn, items, jobs):
    if jobs is None or jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _select_code(n: int, m: int, seed: int):
    """Single-run code choice: the standard code when it fits, an identity
    encoding when the message is as long as the input, a seeded random code
    otherwise."""
    if n == 2 and m == 1:
        return build_standard_2to1()
    if m == n:
        return build_identity_encoding(n)
    return build_random_qrac(n, m, seed=seed)


# ---------------------------------------------------------------- suites


def suite_pgm(seed: int, seeds: int, jobs: int) -> list[dict]:
    ensembles = corpus.random_two_state_ensembles(seeds, seed)

    def margin(ens: Ensemble) -> float:
        pg = build_pgm(ens, full_table=True)
        p_pgm = success_prob_full(ens, pg)
        p_max = helstrom_pmax(
            ens.prior[0], ens.states[0].mat, ens.prior[1], ens.states[1].mat
        )
        return p_pgm - (p_max**2 + (1.0 - p_max) ** 2)

    margins = _parallel_map(margin, ensembles, jobs)

    q = build_standard_2to1()
    ens = Ensemble.uniform(q)
    bit_value = per_bit_success(ens, build_pgm(ens), 1)
    return [
        _check("pgm_cases", len(margins), seeds, 0, "=="),
        _check("pgm_lower_bound_min_margin", min(margins), 0.0, 1e-8, ">="),
        _check("pgm_standard_bit_success", bit_value, 0.75, 1e-9, "=="),
        _check(
            "pgm_standard_equality_margin",
            bit_value - (P_STANDARD**2 + (1.0 - P_STANDARD) ** 2),
            0.0,
            1e-9,
            "==",
        ),
    ]


def _hamming_worst_excess(q, seed: int, n_priors: int) -> tuple[float, float]:
    """(max over priors of expected_dH - bound, uniform-prior expected_dH)."""
    bound = hamming_budget(q.claimed_p, q.n)
    uniform = expected_hamming_exact(q, Ensemble.uniform(q), build_pgm(Ensemble.uniform(q)))
    worst = uniform.expected_dh - bound
    for prior in corpus.random_priors(2**q.n, n_priors, seed):
        ens = Ensemble.from_qrac(q, prior)
        rep = expected_hamming_exact(q, ens, build_pgm(ens))
        worst = max(worst, rep.expected_dh - bound)
    return worst, uniform.expected_dh


def suite_hamming(
    seed: int, seeds: int, jobs: int, n: int | None = None, m: int | None = None,
    n_priors: int = 20,
) -> list[dict]:
    if n is not None and m is not None:
        codes = [build_random_qrac(n, m, seed=seed + i) for i in range(seeds)]
    else:
        codes = corpus.reference_corpus(seeds, seed)

    results = _parallel_map(
        lambda pair: _hamming_worst_excess(pair[1], seed + 7919 * pair[0], n_priors),
        list(enumerate(codes)),
        jobs,
    )
    worst = max(r[0] for r in results)

    q = build_standard_2to1()
    std = expected_hamming_exact(q, Ensemble.uniform(q), build_pgm(Ensemble.uniform(q)))
    return [
        _check("hamming_cases", len(codes), len(codes), 0, "=="),
        _check("hamming_max_excess", worst, 0.0, 1e-8),
        _check("hamming_standard_equality", std.expected_dh, 0.5, 1e-9, "=="),
    ]


def suite_minimax(
    seed: int, seeds: int, jobs: int, eps: float = 0.02, max_iters: int = 2000
) -> list[dict]:
    base = build_standard_2to1()
    codes = [base, build_tensor_power(base, 2), build_tensor_power(base, 3)]
    codes += corpus.random_qrac_corpus(seeds, seed, n_max=5, m_max=3)

    def solve(q):
        try:
            sol = solve_worstcase(q, eps=eps, max_iters=max_iters)
        except NotConvergedError as exc:
            sol = exc.best
        bound = hamming_budget(q.claimed_p, q.n)
        return (
            sol.worst_x_value - (bound + eps * q.n),
            sol.gap / q.n,
            1.0 if sol.converged else 0.0,
        )

    results = _parallel_map(solve, codes, jobs)
    return [
        _check("minimax_cases", len(results), len(codes), 0, "=="),
        _check("minimax_all_converged", min(r[2] for r in results), 1, 0, "=="),
        _check("minimax_certificate_max_excess", max(r[0] for r in results), 0.0, 1e-12),
        _check("minimax_gap_max_share", max(r[1] for r in results), 0.05, 1e-12),
    ]


def suite_info(seed: int, seeds: int, jobs: int) -> list[dict]:
    channels = corpus.random_channels(seeds, seed)
    mismatches = _parallel_map(
        lambda ch: abs(max_channel_capacity(ch).value - max_channel_capacity_lp(ch)),
        channels,
        jobs,
    )

    identity4 = max_channel_capacity(ClassicalChannel(np.eye(4))).value
    constant = max_channel_capacity(
        ClassicalChannel(np.tile(np.full(5, 0.2), (5, 1)))
    ).value
    ratio17 = max_channel_capacity(
        ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    ).value

    codes = corpus.reference_corpus(seeds, seed)

    def ident_excess(q):
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        res = identification_bound_check(q, pg.full)
        return res.lhs - res.rhs

    excesses = _parallel_map(ident_excess, codes, jobs)
    q = build_standard_2to1()
    std = identification_bound_check(
        q, build_pgm(Ensemble.uniform(q), full_table=True).full
    )
    return [
        _check("info_cmax_cases", len(mismatches), seeds, 0, "=="),
        _check("info_cmax_lp_max_mismatch", max(mismatches), 0.0, 1e-9),
        _check("info_cmax_identity4", identity4, 2.0, 1e-9, "=="),
        _check("info_cmax_constant", constant, 0.0, 1e-9, "=="),
        _check("info_cmax_ratio17", ratio17, math.log2(1.7), 1e-9, "=="),
        _check("info_identification_cases", len(excesses), len(codes), 0, "=="),
        _check("info_identification_max_excess", max(excesses), 0.0, 1e-8),
        _check("info_identification_standard", std.lhs, 2.0, 1e-9, "=="),
    ]


_WORKED_CHANNELS = (
    lambda: ClassicalChannel(np.eye(4)),
    lambda: ClassicalChannel(np.tile(np.full(4, 0.25), (4, 1))),
    lambda: ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]])),
)


def suite_compress(
    seed: int, seeds: int, jobs: int, etas=(0.1, 0.05), mc_runs: int = 100_000
) -> list[dict]:
    channels = corpus.random_channels(seeds, seed) + [f() for f in _WORKED_CHANNELS]

    def audit(item):
        idx, (ch, eta) = item
        scheme = build_scheme(ch, eta)
        tv_excess = max(
            exact_output_distribution(scheme, x).tv_error - eta
            for x in range(ch.in_size)
        )
        bits_cap = index_bits_cap(scheme.c_max, eta)
        x_star = argmax_first(scheme.a)
        p = 2.0 ** -scheme.a[x_star]
        est = estimate_acceptance_rate(scheme, x_star, seed=seed + idx, runs=mc_runs)
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / mc_runs)
        return tv_excess, scheme.index_bits - bits_cap, abs(est - p) / sigma

    pairs = [(ch, eta) for eta in etas for ch in channels]
    results = _parallel_map(audit, list(enumerate(pairs)), jobs)
    return [
        _check("compress_cases", len(results), len(pairs), 0, "=="),
        _check("compress_tv_error_max_excess", max(r[0] for r in results), 0.0, 1e-12),
        _check("compress_index_bits_max_excess", max(r[1] for r in results), 0, 0),
        _check("compress_acceptance_max_sigmas", max(r[2] for r in results), 4.0, 0.0),
    ]


def suite_convert(
    seed: int, jobs: int, etas=(0.3, 0.2), c_newman: float = 8.0
) -> list[dict]:
    codes = [build_identity_encoding(n) for n in range(1, 5)]
    codes.append(build_standard_2to1())

    def audit(item):
        q, eta = item
        cb = build_rac(q, eta=eta, seed=seed, c_newman=c_newman)
        val = validate_rac(cb, q)
        budget = message_bits_budget(q.m, len(cb.s_set), eta)
        return (
            val.min_success - cb.success_floor,
            cb.total_message_bits - budget,
            1.0 if val.ok else 0.0,
        )

    pairs = [(q, eta) for eta in etas for q in codes]
    results = _parallel_map(audit, pairs, jobs)
    return [
        _check("convert_cases", len(results), len(pairs), 0, "=="),
        _check("convert_all_ok", min(r[2] for r in results), 1, 0, "=="),
        _check("convert_rac_min_slack", min(r[0] for r in results), 0.0, 1e-8, ">="),
        _check("convert_message_bits_max_excess", max(r[1] for r in results), 0, 0),
    ]


def suite_bounds(seed: int, seeds: int, jobs: int) -> list[dict]:
    codes = corpus.reference_corpus(seeds, seed)

    def slack(q):
        p_val = validate_qrac(q).worst_case_p
        return q.m - qubit_lower_bound(q.n, p_val).from_hamming

    slacks = _parallel_map(slack, codes, jobs)

    checks = [
        _check("bounds_cases", len(slacks), len(codes), 0, "=="),
        _check("bounds_qubit_min_slack", min(slacks), 0.0, 1e-8, ">="),
    ]
    base = build_standard_2to1()
    for label, q in (("standard", base), ("tensor2", build_tensor_power(base, 2))):
        pg = build_pgm(Ensemble.uniform(q), full_table=True)
        joint = full_outcome_table(q, pg) / 2**q.n
        rep = distance_conditioning_check(joint, q.n)
        checks.append(
            _check(
                f"bounds_chain_monotone_{label}",
                rep.h_x_given_y - rep.h_x_given_yd,
                0.0,
                1e-9,
                ">=",
            )
        )
        checks.append(
            _check(
                f"bounds_chain_recover_{label}",
                rep.h_x_given_yd + rep.side_information - rep.h_x_given_y,
                0.0,
                1e-9,
                ">=",
            )
        )
    return checks


# ---------------------------------------------------------------- commands


def cmd_demo(cfg: dict) -> dict:
    q = build_standard_2to1()
    ens = Ensemble.uniform(q)
    pg = build_pgm(ens, full_table=True)
    p_pgm = success_prob_full(ens, pg)
    per_bit = [per_bit_success(ens, pg, i) for i in (1, 2)]
    rep = expected_hamming_exact(q, ens, pg)
    extra = {
        "p_qrac": q.claimed_p,
        "p_pgm": p_pgm,
        "per_bit": per_bit,
        "expected_dh": rep.expected_dh,
        "bound": rep.bound,
    }
    checks = [
        _check("demo_p_qrac", q.claimed_p, 0.8535533905932737, 1e-9, "=="),
        _check("demo_p_pgm", p_pgm, 0.5, 1e-9, "=="),
        _check("demo_per_bit_1", per_bit[0], 0.75, 1e-9, "=="),
        _check("demo_per_bit_2", per_bit[1], 0.75, 1e-9, "=="),
        _check("demo_expected_dh", rep.expected_dh, 0.5, 1e-9, "=="),
        _check("demo_bound", rep.bound, 0.5, 1e-9, "=="),
    ]
    return make_report(
        "demo-2to1", cfg, checks, deterministic=bool(cfg["deterministic"]), extra=extra
    )


_SUITE_DEFAULT_SEEDS = {
    "pgm": 500,
    "hamming": 200,
    "minimax": 50,
    "info": 200,
    "compress": 200,
    "convert": 0,
    "bounds": 200,
}


def run_suite_kind(kind: str, cfg: dict) -> list[dict]:
    seed = cfg["seed"]
    jobs = cfg["jobs"] or 1
    seeds = cfg["seeds"] if cfg["seeds"] is not None else _SUITE_DEFAULT_SEEDS[kind]
    if kind == "pgm":
        return suite_pgm(seed, seeds, jobs)
    if kind == "hamming":
        return suite_hamming(seed, seeds, jobs, n=cfg["n"], m=cfg["m"])
    if kind == "minimax":
        return suite_minimax(
            seed, seeds, jobs,
            eps=cfg["eps"] if cfg["eps"] is not None else 0.02,
            max_iters=cfg["max_iters"] or 2000,
        )
    if kind == "info":
        return suite_info(seed, seeds, jobs)
    if kind == "compress":
        etas = (cfg["eta"],) if cfg["eta"] is not None else (0.1, 0.05)
        return suite_compress(seed, seeds, jobs, etas=etas)
    if kind == "convert":
        etas = (cfg["eta"],) if cfg["eta"] is not None else (0.3, 0.2)
        return suite_convert(
            seed, jobs, etas=etas,
            c_newman=cfg["c_newman"] if cfg["c_newman"] is not None else 8.0,
        )
    if kind == "bounds":
        return suite_bounds(seed, seeds, jobs)
    raise UsageError(f"unknown suite kind {kind!r}")


def cmd_suite(cfg: dict) -> dict:
    kind = cfg["kind"]
    if kind not in SUITE_KINDS:
        raise UsageError(f"suite kind must be one of {', '.join(SUITE_KINDS)}")
    kinds = [k for k in SUITE_KINDS if k != "all"] if kind == "all" else [kind]
    checks = []
    for k in kinds:
        checks.extend(run_suite_kind(k, cfg))
    return make_report("suite", cfg, checks, deterministic=bool(cfg["deterministic"]))


def cmd_convert(cfg: dict) -> dict:
    n, m = cfg["n"], cfg["m"]
    eta = cfg["eta"] if cfg["eta"] is not None else 0.2
    c_newman = cfg["c_newman"] if cfg["c_newman"] is not None else 8.0
    q = _select_code(n, m, cfg["seed"])
    extra: dict = {"n": n, "m": m, "eta": eta, "claimed_p": q.claimed_p}
    try:
        cb = build_rac(q, eta=eta, seed=cfg["seed"], c_newman=c_newman)
    except DerandomizationFailedError as exc:
        checks = [_check("convert_derandomization_ok", 0, 1, 0, "==")]
        extra["worst_margin"] = exc.worst_margin
        return make_report(
            "convert", cfg, checks, deterministic=bool(cfg["deterministic"]), extra=extra
        )
    val = validate_rac(cb, q)
    budget = message_bits_budget(q.m, len(cb.s_set), eta)
    extra.update(
        {
            "s_set_size": len(cb.s_set),
            "total_message_bits": cb.total_message_bits,
            "min_success": val.min_success,
            "success_floor": cb.success_floor,
        }
    )
    checks = [
        _check("convert_derandomization_ok", 1, 1, 0, "=="),
        _check("convert_min_success", val.min_success, cb.success_floor, 1e-8, ">="),
        _check("convert_message_bits", cb.total_message_bits, budget, 0),
    ]
    return make_report(
        "convert", cfg, checks, deterministic=bool(cfg["deterministic"]), extra=extra
    )


def cmd_compress(cfg: dict) -> dict:
    n, m = cfg["n"], cfg["m"]
    eta = cfg["eta"] if cfg["eta"] is not None else 0.1
    q = _select_code(n, m, cfg["seed"])
    channel = effective_channel(q, SharedShift(0, q.n, q.n))
    scheme = build_scheme(channel, eta)
    tv_excess = max(
        exact_output_distribution(scheme, x).tv_error - eta
        for x in range(channel.in_size)
    )
    bits_cap = index_bits_cap(scheme.c_max, eta)
    x_star = argmax_first(scheme.a)
    p = 2.0 ** -scheme.a[x_star]
    est = estimate_acceptance_rate(scheme, x_star, seed=cfg["seed"], runs=100_000)
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / 100_000)
    extra = {
        "n": n,
        "m": m,
        "eta": eta,
        "c_max": scheme.c_max,
        "n_cap": scheme.n_cap,
        "index_bits": scheme.index_bits,
    }
    checks = [
        _check("compress_tv_error_max_excess", tv_excess, 0.0, 1e-12),
        _check("compress_index_bits", scheme.index_bits, bits_cap, 0),
        _check("compress_acceptance_sigmas", abs(est - p) / sigma, 4.0, 0.0),
    ]
    return make_report(
        "compress", cfg, checks, deterministic=bool(cfg["deterministic"]), extra=extra
    )


def cmd_minimax(cfg: dict) -> dict:
    n, m = cfg["n"], cfg["m"]
    eps = cfg["eps"] if cfg["eps"] is not None else 0.02
    q = _select_code(n, m, cfg["seed"])
    try:
        sol = solve_worstcase(q, eps=eps, max_iters=cfg["max_iters"] or 2000)
    except NotConvergedError as exc:
        sol = exc.best
    bound = hamming_budget(q.claimed_p, q.n)
    extra = {
        "n": n,
        "m": m,
        "claimed_p": q.claimed_p,
        "iterations": sol.iterations,
        "worst_x_value": sol.worst_x_value,
        "gap": sol.gap,
    }
    checks = [
        _check("minimax_converged", 1 if sol.converged else 0, 1, 0, "=="),
        _check("minimax_certificate", sol.worst_x_value, bound + eps * q.n, 1e-12),
        _check("minimax_gap_share", sol.gap / q.n, 0.05, 1e-12),
    ]
    return make_report(
        "minimax", cfg, checks, deterministic=bool(cfg["deterministic"]), extra=extra
    )


def cmd_bounds(cfg: dict) -> dict:
    n = cfg["n"]
    p = cfg["p_target"] if cfg["p_target"] is not None else P_STANDARD
    bound = qubit_lower_bound(n, p)
    extra = {
        "n": n,
        "p_target": p,
        "from_hamming": bound.from_hamming,
        "from_entropy": bound.from_entropy,
    }
    checks = [
        _check(
            "bounds_hamming_below_entropy",
            bound.from_entropy - bound.from_hamming,
            0.0,
            1e-12,
            ">=",
        ),
    ]
    if cfg["m"] is not None:
        checks.append(
            _check("bounds_m_vs_hamming", cfg["m"], bound.from_hamming, 1e-8, ">=")
        )
        extra["m"] = cfg["m"]
    return make_report(
        "bounds", cfg, checks, deterministic=bool(cfg["deterministic"]), extra=extra
    )


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qraclab",
        description="Random access code experiments: measurements, games, "
        "compression, and classical conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seeded=True):
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--deterministic", action="store_true", default=None)
        p.add_argument("--config", default=None, metavar="PATH")
        if seeded:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("demo-2to1", help="worked 2-bits-into-1-qubit example")
    add_common(p, seeded=False)

    p = sub.add_parser("suite", help="batch verification suites")
    p.add_argument("--kind", choices=SUITE_KINDS, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--c-newman", dest="c_newman", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    add_common(p)

    p = sub.add_parser("convert", help="build and validate one classical code")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--c-newman", dest="c_newman", type=float, default=None)
    add_common(p)

    p = sub.add_parser("compress", help="compress one code's readout channel")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    add_common(p)

    p = sub.add_parser("minimax", help="solve the worst-case decoding game")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    add_common(p)

    p = sub.add_parser("bounds", help="qubit lower bounds for target success")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--p-target", dest="p_target", type=float, default=None)
    add_common(p, seeded=False)

    return parser


_DEFAULTS = {
    "kind": "all",
    "n": 2,
    "m": 1,
    "seeds": None,
    "seed": 0,
    "jobs": 1,
    "max_iters": None,
    "eta": None,
    "eps": None,
    "c_newman": None,
    "p_target": None,
    "format": "json",
    "out": None,
    "deterministic": False,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, _DEFAULTS)
        if args.command == "demo-2to1":
            report = cmd_demo(cfg)
        elif args.command == "suite":
            report = cmd_suite(cfg)
        elif args.command == "convert":
            report = cmd_convert(cfg)
        elif args.command == "compress":
            report = cmd_compress(cfg)
        elif args.command == "minimax":
            report = cmd_minimax(cfg)
        elif args.command == "bounds":
            report = cmd_bounds(cfg)
        else:
            raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, DomainError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit_report(report, cfg["format"], cfg["out"])


if __name__ == "__main__":
    sys.exit(main())
