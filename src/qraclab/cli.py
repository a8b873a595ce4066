"""Command line driver: the worked 2-bits-into-1-qubit demo, batch
verification suites over seeded corpora, and single-shot runs of the solver,
compressor, converter, and bound calculators.

One spec drives the command line: ``FLAGS`` gives each key its type,
default, choices and smallest value, and ``COMMANDS`` gives each command its
handler, its keys and the defaults it overrides.  argparse, ``--config``
files, ``QRACLAB_SEED``, the range checks and the dispatch all read it, so a
config-file value passes the same choices and ranges as its flag.  Each
suite shares one audit function, or the solver itself, with the
single-shot command it mirrors.

Reports are versioned JSON (and RFC-4180 CSV) built from check rows; every
checked number carries the threshold and tolerance it was compared against.
JSON floats use Python's shortest round-trip repr, which is bit-faithful on
reload; CSV lines end in CRLF and float cells carry 17 significant digits.
Exit status: 0 all checks pass, 1 at least one failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import corpus
from .compression import (
    build_scheme,
    estimate_acceptance_rate,
    exact_output_distribution,
    index_bits_cap,
)
from .conversion import (
    RAC_MAX_N,
    build_rac,
    effective_channel,
    message_bits_budget,
    validate_rac,
)
from .decoding import expected_hamming_exact, identification_bound_check
from .errors import DerandomizationFailedError, DomainError, SizeCapError
from .info import (
    ClassicalChannel,
    distance_conditioning_check,
    max_channel_capacity,
    max_channel_capacity_lp,
    qubit_lower_bound,
)
from .linalg import argmax_first
from .minimax import GAP_SHARE, SOLVER_MAX_N, solve_worstcase
from .pgm import build_pgm, helstrom_pmax, per_bit_success, pgm_lower_bound, success_prob_full
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

SCHEMA_VERSION = 1

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
        if key not in FLAGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: key {key!r} does not apply to this command")
        flag = FLAGS[key]
        try:
            out[key] = _BOOL_WORDS[raw.lower()] if flag.type is bool else flag.type(raw)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value {raw!r} for {key!r}") from exc
        if flag.choices and out[key] not in flag.choices:
            raise UsageError(
                f"{path}:{lineno}: {key!r} must be one of {', '.join(flag.choices)}, got {raw!r}"
            )
    return out


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: explicit flags > config file > QRACLAB_SEED (for the
    seed only) > the command's defaults.  Every value, whatever its source,
    then passes its flag's checks: a float is finite, a number is at least
    its smallest value, and ``out`` names a file in a directory that exists."""
    filecfg = parse_config_file(args.config, set(defaults)) if args.config else {}
    resolved = {}
    for key in sorted(defaults):
        given = getattr(args, key)
        if given is not None:
            resolved[key] = given
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
            resolved[key] = defaults[key]
        value, low = resolved[key], FLAGS[key].low
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {value}")
        if low is not None and value is not None and value < low:
            raise UsageError(f"{key} must be at least {low}, got {value}")
    folder = os.path.dirname(resolved["out"] or "")
    if folder and not os.path.isdir(folder):
        raise UsageError(f"out: directory {folder!r} does not exist")
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


def report_to_csv(report: dict) -> str:
    """The report's check rows as CSV; ``_check`` makes every number a float."""
    header = ["check", "value", "threshold", "tolerance", "direction", "ok"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for check in report["checks"]:
        row = [check[key] for key in header]
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def emit_report(command: str, cfg: dict, checks: list[dict], extra: dict) -> int:
    """Print the report, and write it to PATH.json and PATH.csv for
    ``--out PATH``; return the exit status its checks give.  A file that
    cannot be written is a usage error, raised before anything is printed."""
    report = {"schema_version": SCHEMA_VERSION, "command": command, "config": cfg}
    if not cfg["deterministic"]:
        report["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report.update(extra)
    report["checks"] = checks
    failures = [c["check"] for c in checks if not c["ok"]]
    report["ok"] = not failures
    report["failures"] = failures
    text = json.dumps(report, indent=2) + "\n"
    table = report_to_csv(report)
    if cfg["out"]:
        try:
            with open(f"{cfg['out']}.json", "w") as fh:
                fh.write(text)
            with open(f"{cfg['out']}.csv", "w", newline="") as fh:
                fh.write(table)
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from exc
    sys.stdout.write(table if cfg["format"] == "csv" else text)
    return 0 if report["ok"] else 1


def _select_code(n: int, m: int, seed: int, cap: int):
    """Single-run code choice: the standard code when it fits, an identity
    encoding when the message is as long as the input, a seeded random code
    otherwise.  ``n`` above the command's ``cap`` is refused before any code
    is built."""
    if n > cap:
        raise SizeCapError(f"this command is capped at n = {cap}, got {n}")
    if n == 2 and m == 1:
        return build_standard_2to1()
    if m == n:
        return build_identity_encoding(n)
    return build_random_qrac(n, m, seed=seed)


# Each audit is shared by a suite and the single-shot command it mirrors; the
# callers build their own check rows from what it returns.


def _audit_compress(channel: ClassicalChannel, eta: float, seed: int, runs: int = 100_000):
    """The scheme for ``channel``, its worst TV error above ``eta``, its
    index-bit cap, and how many standard deviations a seeded Monte Carlo
    acceptance rate lies from the exact one at the least likely input."""
    scheme = build_scheme(channel, eta)
    tv_excess = max(
        exact_output_distribution(scheme, x).tv_error - eta
        for x in range(channel.in_size)
    )
    x_star = argmax_first(scheme.a)
    p = 2.0 ** -scheme.a[x_star]
    est = estimate_acceptance_rate(scheme, x_star, seed=seed, runs=runs)
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / runs)
    return scheme, tv_excess, index_bits_cap(scheme.c_max, eta), abs(est - p) / sigma


def _audit_convert(q, eta: float, seed: int, c_newman: float):
    """The classical codebook for ``q``, its validation, and the message-bit
    budget it must meet."""
    cb = build_rac(q, eta=eta, seed=seed, c_newman=c_newman)
    return cb, validate_rac(cb, q), message_bits_budget(q.m, len(cb.s_set), eta)


# ---------------------------------------------------------------- suites
# Each takes the resolved config as keywords and ignores the keys it does not use.


def suite_pgm(*, seed: int, seeds: int, **_) -> list[dict]:
    ensembles = corpus.random_two_state_ensembles(seeds, seed)

    def margin(ens: Ensemble) -> float:
        pg = build_pgm(ens, full_table=True)
        p_pgm = success_prob_full(ens, pg)
        p_max = helstrom_pmax(
            ens.prior[0], ens.states[0].mat, ens.prior[1], ens.states[1].mat
        )
        return p_pgm - pgm_lower_bound(p_max)

    margins = [margin(ens) for ens in ensembles]

    q = build_standard_2to1()
    ens = Ensemble.uniform(q)
    bit_value = per_bit_success(ens, build_pgm(ens), 1)
    return [
        _check("pgm_cases", len(margins), seeds, 0, "=="),
        _check("pgm_lower_bound_min_margin", min(margins), 0.0, 1e-8, ">="),
        _check("pgm_standard_bit_success", bit_value, 0.75, 1e-9, "=="),
        _check(
            "pgm_standard_equality_margin",
            bit_value - pgm_lower_bound(P_STANDARD),
            0.0,
            1e-9,
            "==",
        ),
    ]


def _hamming_worst_excess(q, seed: int) -> float:
    """Max over the uniform and 20 random priors of expected_dH - bound."""
    bound = hamming_budget(q.claimed_p, q.n)
    priors = corpus.random_priors(2**q.n, 20, seed)
    ensembles = [Ensemble.uniform(q)] + [Ensemble(prior, q.encoder) for prior in priors]
    return max(expected_hamming_exact(q, e, build_pgm(e)).expected_dh - bound for e in ensembles)


def suite_hamming(
    *, seed: int, seeds: int, n: int | None = None, m: int | None = None, **_
) -> list[dict]:
    """Random (n, m) codes when both are given, else the reference corpus."""
    if n is not None and m is not None:
        codes = [build_random_qrac(n, m, seed=seed + i) for i in range(seeds)]
    else:
        codes = corpus.reference_corpus(seeds, seed)

    worst = max(_hamming_worst_excess(q, seed + 7919 * k) for k, q in enumerate(codes))

    q = build_standard_2to1()
    ens = Ensemble.uniform(q)
    std = expected_hamming_exact(q, ens, build_pgm(ens))
    return [
        _check("hamming_cases", len(codes), len(codes), 0, "=="),
        _check("hamming_max_excess", worst, 0.0, 1e-8),
        _check("hamming_standard_equality", std.expected_dh, 0.5, 1e-9, "=="),
    ]


def suite_minimax(
    *, seed: int, seeds: int, eps: float, max_iters: int, **_
) -> list[dict]:
    base = build_standard_2to1()
    codes = [base, build_tensor_power(base, 2), build_tensor_power(base, 3)]
    codes += corpus.random_qrac_corpus(seeds, seed, n_max=5, m_max=3)

    def solve(q):
        sol = solve_worstcase(q, eps=eps, max_iters=max_iters)
        return sol.worst_x_value - sol.ceiling, sol.gap / q.n, 1.0 if sol.converged else 0.0

    results = [solve(q) for q in codes]
    return [
        _check("minimax_cases", len(results), len(codes), 0, "=="),
        _check("minimax_all_converged", min(r[2] for r in results), 1, 0, "=="),
        _check("minimax_certificate_max_excess", max(r[0] for r in results), 0.0, 1e-12),
        _check("minimax_gap_max_share", max(r[1] for r in results), GAP_SHARE, 1e-12),
    ]


_WORKED_CHANNELS = (
    lambda: ClassicalChannel(np.eye(4)),
    lambda: ClassicalChannel(np.tile(np.full(4, 0.25), (4, 1))),
    lambda: ClassicalChannel(np.array([[0.9, 0.1], [0.2, 0.8]])),
)


def suite_info(*, seed: int, seeds: int, **_) -> list[dict]:
    channels = corpus.random_channels(seeds, seed)
    mismatches = [
        abs(max_channel_capacity(ch).value - max_channel_capacity_lp(ch)) for ch in channels
    ]

    identity4 = max_channel_capacity(_WORKED_CHANNELS[0]()).value
    constant = max_channel_capacity(
        ClassicalChannel(np.tile(np.full(5, 0.2), (5, 1)))
    ).value
    ratio17 = max_channel_capacity(_WORKED_CHANNELS[2]()).value

    codes = corpus.reference_corpus(seeds, seed)

    def ident(q):
        return identification_bound_check(q, build_pgm(Ensemble.uniform(q), full_table=True).full)

    idents = [ident(q) for q in codes]  # the corpus opens with the standard code
    excesses = [res.lhs - res.rhs for res in idents]
    return [
        _check("info_cmax_cases", len(mismatches), seeds, 0, "=="),
        _check("info_cmax_lp_max_mismatch", max(mismatches), 0.0, 1e-9),
        _check("info_cmax_identity4", identity4, 2.0, 1e-9, "=="),
        _check("info_cmax_constant", constant, 0.0, 1e-9, "=="),
        _check("info_cmax_ratio17", ratio17, math.log2(1.7), 1e-9, "=="),
        _check("info_identification_cases", len(excesses), len(codes), 0, "=="),
        _check("info_identification_max_excess", max(excesses), 0.0, 1e-8),
        _check("info_identification_standard", idents[0].lhs, 2.0, 1e-9, "=="),
    ]


def suite_compress(*, seed: int, seeds: int, etas, **_) -> list[dict]:
    channels = corpus.random_channels(seeds, seed) + [f() for f in _WORKED_CHANNELS]

    def audit(item):
        idx, (ch, eta) = item
        scheme, tv_excess, bits_cap, sigmas = _audit_compress(ch, eta, seed + idx)
        return tv_excess, scheme.index_bits - bits_cap, sigmas

    pairs = [(ch, eta) for eta in etas for ch in channels]
    results = [audit(item) for item in enumerate(pairs)]
    return [
        _check("compress_cases", len(results), len(pairs), 0, "=="),
        _check("compress_tv_error_max_excess", max(r[0] for r in results), 0.0, 1e-12),
        _check("compress_index_bits_max_excess", max(r[1] for r in results), 0, 0),
        _check("compress_acceptance_max_sigmas", max(r[2] for r in results), 4.0, 0.0),
    ]


def suite_convert(*, seed: int, etas, c_newman: float, **_) -> list[dict]:
    codes = [build_identity_encoding(n) for n in range(1, 5)]
    codes.append(build_standard_2to1())

    def audit(item):
        q, eta = item
        cb, val, budget = _audit_convert(q, eta, seed, c_newman)
        return (
            val.min_success - cb.success_floor,
            cb.total_message_bits - budget,
            1.0 if val.ok else 0.0,
        )

    pairs = [(q, eta) for eta in etas for q in codes]
    results = [audit(pair) for pair in pairs]
    return [
        _check("convert_cases", len(results), len(pairs), 0, "=="),
        _check("convert_all_ok", min(r[2] for r in results), 1, 0, "=="),
        _check("convert_rac_min_slack", min(r[0] for r in results), 0.0, 1e-8, ">="),
        _check("convert_message_bits_max_excess", max(r[1] for r in results), 0, 0),
    ]


def suite_bounds(*, seed: int, seeds: int, **_) -> list[dict]:
    codes = corpus.reference_corpus(seeds, seed)

    def slack(q):
        return q.m - qubit_lower_bound(q.n, validate_qrac(q)).from_hamming

    slacks = [slack(q) for q in codes]

    checks = [
        _check("bounds_cases", len(slacks), len(codes), 0, "=="),
        _check("bounds_qubit_min_slack", min(slacks), 0.0, 1e-8, ">="),
    ]
    base = build_standard_2to1()
    for label, q in (("standard", base), ("tensor2", build_tensor_power(base, 2))):
        joint = effective_channel(q).table / 2**q.n
        rep = distance_conditioning_check(joint, q.n)
        margins = {
            "monotone": rep.h_x_given_y - rep.h_x_given_yd,
            "recover": rep.h_x_given_yd + rep.side_information - rep.h_x_given_y,
        }
        for name, margin in margins.items():
            checks.append(_check(f"bounds_chain_{name}_{label}", margin, 0.0, 1e-9, ">="))
    return checks


# Each kind's suite and the defaults of the keys that differ by kind: its
# corpus size and, where it takes η, the η values it runs.  A key set on
# the command line or in a config file overrides them.
SUITES = {
    "pgm": (suite_pgm, {"seeds": 500}),
    "hamming": (suite_hamming, {"seeds": 200}),
    "minimax": (suite_minimax, {"seeds": 50}),
    "info": (suite_info, {"seeds": 200}),
    "compress": (suite_compress, {"seeds": 200, "etas": (0.1, 0.05)}),
    "convert": (suite_convert, {"etas": (0.3, 0.2)}),
    "bounds": (suite_bounds, {"seeds": 200}),
}


# ---------------------------------------------------------------- commands


def cmd_demo(cfg: dict) -> tuple[list[dict], dict]:
    """The worked 2-bits-into-1-qubit example."""
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
    return checks, extra


def cmd_suite(cfg: dict) -> tuple[list[dict], dict]:
    """Batch verification suites."""
    given = {key: value for key, value in cfg.items() if value is not None}
    if "eta" in given:
        given["etas"] = (given["eta"],)
    checks = []
    for kind in SUITES if cfg["kind"] == "all" else (cfg["kind"],):
        run, kind_defaults = SUITES[kind]
        checks.extend(run(**{**kind_defaults, **given}))
    return checks, {}


def cmd_convert(cfg: dict) -> tuple[list[dict], dict]:
    """Build and validate one classical code."""
    n, m, eta = cfg["n"], cfg["m"], cfg["eta"]
    q = _select_code(n, m, cfg["seed"], RAC_MAX_N)
    extra: dict = {"n": n, "m": m, "eta": eta, "claimed_p": q.claimed_p}
    try:
        cb, val, budget = _audit_convert(q, eta, cfg["seed"], cfg["c_newman"])
    except DerandomizationFailedError as exc:
        extra["worst_margin"] = exc.worst_margin
        return [_check("convert_derandomization_ok", 0, 1, 0, "==")], extra
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
    return checks, extra


def cmd_compress(cfg: dict) -> tuple[list[dict], dict]:
    """Compress one code's readout channel."""
    n, m, eta = cfg["n"], cfg["m"], cfg["eta"]
    q = _select_code(n, m, cfg["seed"], RAC_MAX_N)
    channel = effective_channel(q)
    scheme, tv_excess, bits_cap, sigmas = _audit_compress(channel, eta, cfg["seed"])
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
        _check("compress_acceptance_sigmas", sigmas, 4.0, 0.0),
    ]
    return checks, extra


def cmd_minimax(cfg: dict) -> tuple[list[dict], dict]:
    """Solve the worst-case decoding game."""
    n, m = cfg["n"], cfg["m"]
    q = _select_code(n, m, cfg["seed"], SOLVER_MAX_N)
    sol = solve_worstcase(q, eps=cfg["eps"], max_iters=cfg["max_iters"])
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
        _check("minimax_certificate", sol.worst_x_value, sol.ceiling, 1e-12),
        _check("minimax_gap_share", sol.gap / q.n, GAP_SHARE, 1e-12),
    ]
    return checks, extra


def cmd_bounds(cfg: dict) -> tuple[list[dict], dict]:
    """Qubit lower bounds for a target success probability."""
    n, m, p = cfg["n"], cfg["m"], cfg["p_target"]
    bound = qubit_lower_bound(n, p)
    extra = {
        "n": n,
        "p_target": p,
        "from_hamming": bound.from_hamming,
        "from_entropy": bound.from_entropy,
        "m": m,
    }
    checks = [
        _check(
            "bounds_hamming_below_entropy",
            bound.from_entropy - bound.from_hamming,
            0.0,
            1e-12,
            ">=",
        ),
        _check("bounds_m_vs_hamming", m, bound.from_hamming, 1e-8, ">="),
    ]
    return checks, extra


# ---------------------------------------------------------------- spec


class Flag(NamedTuple):
    """What a key accepts, whether from a flag, a config file or
    ``QRACLAB_SEED``, and its default (``None`` is unset).  ``low`` is set
    where the library would not raise :class:`DomainError` itself."""

    type: type
    default: object = None
    choices: tuple = ()
    low: int | None = None


FLAGS = {
    "kind": Flag(str, "all", choices=(*SUITES, "all")),
    "n": Flag(int, 2, low=1),
    "m": Flag(int, 1, low=1),
    "seeds": Flag(int, low=1),
    "seed": Flag(int, 0, low=0),
    "max_iters": Flag(int, 2000),
    "eta": Flag(float),
    "eps": Flag(float, 0.02),
    "c_newman": Flag(float, 8.0),
    "p_target": Flag(float, P_STANDARD),
    "format": Flag(str, "json", choices=("json", "csv")),
    "out": Flag(str),
    "deterministic": Flag(bool, False),
}


def _command(handler, keys=(), **overrides) -> tuple[Callable, dict]:
    """A command's handler (its docstring is the command's help) and each of
    its keys, the output keys included, with its default."""
    keys = (*keys, "format", "out", "deterministic")
    return handler, {key: overrides.get(key, FLAGS[key].default) for key in keys}


COMMANDS = {
    "demo-2to1": _command(cmd_demo),
    "suite": _command(
        cmd_suite,
        ("kind", "n", "m", "seeds", "seed", "eta", "eps", "c_newman", "max_iters"),
        n=None,
        m=None,
    ),
    "convert": _command(cmd_convert, ("n", "m", "eta", "c_newman", "seed"), eta=0.2),
    "compress": _command(cmd_compress, ("n", "m", "eta", "seed"), eta=0.1),
    "minimax": _command(cmd_minimax, ("n", "m", "eps", "max_iters", "seed")),
    "bounds": _command(cmd_bounds, ("n", "m", "p_target")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qraclab",
        description="Random access code experiments: measurements, games, "
        "compression, and classical conversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for key in defaults:
            flag, option = FLAGS[key], "--" + key.replace("_", "-")
            if flag.type is bool:
                p.add_argument(option, action="store_true", default=None)
            else:
                p.add_argument(option, type=flag.type, choices=flag.choices or None, default=None)
        p.add_argument("--config", default=None, metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, defaults = COMMANDS[args.command]
    try:
        cfg = _resolve(args, defaults)
        checks, extra = handler(cfg)
        return emit_report(args.command, cfg, checks, extra)
    except (UsageError, DomainError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
