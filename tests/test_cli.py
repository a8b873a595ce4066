"""End-to-end checks of the command line driver: report shape, exit codes,
config handling, and output formats."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qraclab import cli
from qraclab.cli import UsageError, _check, main, parse_config_file
from qraclab.info import qubit_lower_bound


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_demo_values(capsys):
    code, out = run_cli(capsys, "demo-2to1", "--deterministic")
    assert code == 0
    report = json.loads(out)
    np.testing.assert_allclose(report["p_qrac"], np.cos(np.pi / 8) ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report["p_pgm"], 0.5, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report["per_bit"], [0.75, 0.75], rtol=0, atol=1e-12)
    np.testing.assert_allclose(report["expected_dh"], 0.5, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report["bound"], 0.5, rtol=0, atol=1e-12)
    assert report["ok"] is True
    assert report["failures"] == []


def test_report_envelope(capsys):
    code, out = run_cli(capsys, "demo-2to1", "--deterministic")
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["command"] == "demo-2to1"
    assert "created" not in report
    for row in report["checks"]:
        assert set(row) == {"check", "value", "threshold", "tolerance", "direction", "ok"}
        assert row["ok"] is True


def test_created_present_without_deterministic(capsys):
    _, out = run_cli(capsys, "demo-2to1")
    report = json.loads(out)
    assert "created" in report


def test_exit_one_on_failed_check(capsys):
    code, out = run_cli(
        capsys, "bounds", "--n", "8", "--m", "1", "--p-target", "0.99", "--deterministic"
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert "bounds_m_vs_hamming" in report["failures"]


def test_bounds_values_match_library(capsys):
    code, out = run_cli(
        capsys, "bounds", "--n", "5", "--p-target", "0.8", "--deterministic"
    )
    assert code == 0
    report = json.loads(out)
    ref = qubit_lower_bound(5, 0.8)
    np.testing.assert_allclose(report["from_hamming"], ref.from_hamming, rtol=0, atol=0)
    np.testing.assert_allclose(report["from_entropy"], ref.from_entropy, rtol=0, atol=0)


def test_argparse_rejects_bad_flag():
    with pytest.raises(SystemExit) as err:
        main(["suite", "--kind", "nonsense"])
    assert err.value.code == 2


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("not_a_key = 3\n")
    code, _ = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize(
    "command, line", [("demo-2to1", "format = xml"), ("suite", "kind = nonsense")]
)
def test_config_value_outside_choices_exits_two(tmp_path, capsys, command, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, line",
    [("minimax", "eps = inf"), ("convert", "eta = nan"), ("bounds", "p_target = -inf")],
)
def test_config_float_not_finite_exits_two(tmp_path, capsys, command, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


def test_config_key_wrong_command_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p_target = 0.9\n")
    code, _ = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--eta", "1.5"],
        ["minimax", "--n", "9"],
        ["suite", "--kind", "pgm", "--seeds", "0"],
        # 1/eta overflows to inf at a subnormal eta
        ["compress", "--eta", "1e-310"],
        ["suite", "--kind", "compress", "--seeds", "2", "--eta", "5e-324"],
    ],
)
def test_bad_input_exits_two_without_traceback(argv):
    cmd = [sys.executable, "-m", "qraclab.cli", *argv]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        [cmd, flag, value]
        for cmd in ("minimax", "compress", "convert")
        for flag, value in (("--n", "0"), ("--n", "-2"), ("--m", "0"))
    ]
    + [["compress", "--seed", "-1"], ["convert", "--seed", "-1"]]
    + [
        ["minimax", "--max-iters", "-5"],
        ["minimax", "--max-iters", "0"],
        ["suite", "--kind", "minimax", "--seeds", "1", "--max-iters", "-1"],
        ["convert", "--c-newman", "-1"],
        ["convert", "--c-newman", "0"],
        ["suite", "--kind", "pgm", "--seeds", "1", "--jobs", "0"],
    ]
    + [
        ["minimax", "--eps", "inf", "--max-iters", "2", "--deterministic"],
        ["minimax", "--eps", "nan", "--max-iters", "2", "--deterministic"],
        ["convert", "--eta=-inf"],
        ["convert", "--c-newman", "inf"],
        ["bounds", "--p-target", "nan"],
        ["suite", "--kind", "pgm", "--seeds", "1", "--eta", "nan"],
    ]
    + [
        ["convert", "--eta", "1e-300"],
        ["convert", "--c-newman", "1e300"],
        ["suite", "--kind", "convert", "--eta", "1e-300"],
    ],
)
def test_out_of_range_integer_exits_two_in_process(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--n", "9", "--m", "9"],
        ["convert", "--n", "9", "--m", "3"],
        ["compress", "--n", "10", "--m", "10"],
        ["minimax", "--n", "9", "--m", "2"],
    ],
)
def test_size_cap_exits_two_before_building_a_code(argv, capsys, monkeypatch):
    built = []
    for name in ("build_standard_2to1", "build_identity_encoding", "build_random_qrac"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: built.append(name))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "capped at n = 8" in err
    assert built == []


def test_out_into_missing_directory_exits_two(tmp_path):
    out = tmp_path / "missing" / "report"
    cmd = [sys.executable, "-m", "qraclab.cli", "demo-2to1", "--deterministic", "--out", str(out)]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_unwritable_out_exits_two(tmp_path):
    # PATH.json is a directory, so the report cannot be written there
    (tmp_path / "r.json").mkdir()
    out = tmp_path / "r"
    cmd = [sys.executable, "-m", "qraclab.cli", "demo-2to1", "--deterministic", "--out", str(out)]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: cannot write report: ") and res.stderr.count("\n") == 1


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, qraclab.cli; print('scipy.optimize' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_config_parsing_types(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "# comment line\n"
        "kind = hamming\n"
        "seeds = 6   # trailing comment\n"
        "eta = 0.25\n"
        "deterministic = true\n"
        "\n"
    )
    allowed = {"kind", "seeds", "eta", "deterministic"}
    parsed = parse_config_file(str(cfg), allowed)
    assert parsed == {"kind": "hamming", "seeds": 6, "eta": 0.25, "deterministic": True}


def test_config_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds 6\n")
    with pytest.raises(UsageError):
        parse_config_file(str(cfg), {"seeds"})
    cfg.write_text("seeds = lots\n")
    with pytest.raises(UsageError):
        parse_config_file(str(cfg), {"seeds"})


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("kind = hamming\nseeds = 4\nseed = 11\n")
    code, out = run_cli(
        capsys, "suite", "--config", str(cfg), "--seed", "5", "--deterministic"
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["seed"] == 5
    assert report["config"]["seeds"] == 4


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("QRACLAB_SEED", "42")
    _, out = run_cli(
        capsys, "suite", "--kind", "hamming", "--seeds", "3", "--deterministic"
    )
    assert json.loads(out)["config"]["seed"] == 42
    _, out = run_cli(
        capsys,
        "suite", "--kind", "hamming", "--seeds", "3", "--seed", "9", "--deterministic",
    )
    assert json.loads(out)["config"]["seed"] == 9


def test_csv_format(capsys):
    code, out = run_cli(capsys, "demo-2to1", "--deterministic", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "check,value,threshold,tolerance,direction,ok"
    assert len(lines) == 7
    assert all(line.endswith("True") for line in lines[1:])


def test_out_writes_json_and_csv(tmp_path, capsys):
    target = tmp_path / "report"
    code, _ = run_cli(capsys, "demo-2to1", "--deterministic", "--out", str(target))
    assert code == 0
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["ok"] is True
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("check,value")
    # values are written at 17 significant digits, so they read back exactly
    rows = csv_text.strip().split("\n")[1:]
    assert [float(row.split(",")[1]) for row in rows] == [c["value"] for c in on_disk["checks"]]


def test_deterministic_reports_byte_identical():
    cmd = [sys.executable, "-m", "qraclab.cli", "demo-2to1", "--deterministic"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_suite_pgm_small(capsys):
    code, out = run_cli(
        capsys, "suite", "--kind", "pgm", "--seeds", "5", "--deterministic"
    )
    assert code == 0
    names = [c["check"] for c in json.loads(out)["checks"]]
    assert "pgm_lower_bound_min_margin" in names
    assert "pgm_standard_bit_success" in names


def test_suite_hamming_explicit_nm(capsys):
    code, out = run_cli(
        capsys,
        "suite", "--kind", "hamming", "--n", "4", "--m", "2", "--seeds", "5",
        "--deterministic",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_suite_hamming_default_uses_reference_corpus(capsys):
    # the standard code and its tensor powers k = 2..4 come before the random codes
    code, out = run_cli(capsys, "suite", "--kind", "hamming", "--seeds", "2", "--deterministic")
    assert code == 0
    rows = {c["check"]: c for c in json.loads(out)["checks"]}
    assert rows["hamming_cases"]["value"] == 2 + 4


def test_suite_jobs_reproduce_serial(capsys):
    _, serial = run_cli(
        capsys, "suite", "--kind", "info", "--seeds", "6", "--deterministic"
    )
    _, parallel = run_cli(
        capsys,
        "suite", "--kind", "info", "--seeds", "6", "--jobs", "3", "--deterministic",
    )
    assert json.loads(serial)["checks"] == json.loads(parallel)["checks"]


def test_minimax_command(capsys):
    code, out = run_cli(
        capsys, "minimax", "--n", "2", "--m", "1", "--deterministic"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    np.testing.assert_allclose(report["worst_x_value"], 0.5, rtol=0, atol=1e-9)


def test_convert_command(capsys):
    code, out = run_cli(
        capsys,
        "convert", "--n", "2", "--m", "1", "--eta", "0.3", "--seed", "1",
        "--deterministic",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["total_message_bits"] <= 12


@pytest.mark.parametrize(
    "argv", [("convert", "--n", "3", "--m", "2"), ("minimax", "--n", "4", "--m", "2")]
)
def test_degenerate_code_judged_as_half(capsys, argv):
    # the default seed draws a code claiming p < 1/2; its budget is that of p = 1/2
    code, out = run_cli(capsys, *argv, "--deterministic")
    report = json.loads(out)
    assert report["claimed_p"] < 0.5
    assert code == 0
    assert report["ok"] is True


def test_compress_command(capsys):
    code, out = run_cli(
        capsys,
        "compress", "--n", "3", "--m", "2", "--eta", "0.1", "--seed", "5",
        "--deterministic",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["index_bits"] >= 1


def test_check_helper_directions():
    assert _check("a", 1.0, 2.0, 0.0, "<=")["ok"]
    assert not _check("a", 3.0, 2.0, 0.0, "<=")["ok"]
    assert _check("a", 2.0, 1.0, 0.0, ">=")["ok"]
    assert not _check("a", 0.5, 1.0, 0.0, ">=")["ok"]
    assert _check("a", 1.0 + 1e-10, 1.0, 1e-9, "==")["ok"]
    assert not _check("a", 1.1, 1.0, 1e-9, "==")["ok"]
    with pytest.raises(ValueError):
        _check("a", 1.0, 1.0, 0.0, "~=")


def test_compress_acceptance_input_ignores_rounding_in_a():
    """compress picks its Monte Carlo input as the first one within 1e-12 of
    max(a): on the (3, 2) code a ties across inputs up to ~2e-16, and a
    perturbation of 1e-15 must not move the pick."""
    from qraclab.cli import _select_code
    from qraclab.compression import build_scheme
    from qraclab.conversion import SharedShift, effective_channel
    from qraclab.linalg import argmax_first

    q = _select_code(3, 2, 0, cap=3)
    a = build_scheme(effective_channel(q, SharedShift(0, q.n, q.n)), 0.1).a
    pick = argmax_first(a)
    assert np.ptp(a) < 1e-12  # the entries do tie up to rounding
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert argmax_first(a + 1e-15 * rng.choice([-1.0, 1.0], size=len(a))) == pick


def test_cli_surface_is_pinned():
    """Every subcommand's flags and config keys, written out so that no change
    to the spec adds or drops one unnoticed."""
    output = {"format", "out", "deterministic"}
    keys = {
        "demo-2to1": output,
        "suite": output | {
            "kind", "n", "m", "seeds", "seed", "eta", "eps", "c_newman", "max_iters", "jobs",
        },
        "convert": output | {"n", "m", "eta", "seed", "c_newman"},
        "compress": output | {"n", "m", "eta", "seed"},
        "minimax": output | {"n", "m", "eps", "seed", "max_iters"},
        "bounds": output | {"n", "m", "p_target"},
    }
    flags = {
        "demo-2to1": {"--format", "--out", "--deterministic", "--config"},
        "suite": {
            "--kind", "--n", "--m", "--seeds", "--seed", "--eta", "--eps", "--c-newman",
            "--max-iters", "--jobs", "--format", "--out", "--deterministic", "--config",
        },
        "convert": {
            "--n", "--m", "--eta", "--c-newman", "--seed",
            "--format", "--out", "--deterministic", "--config",
        },
        "compress": {
            "--n", "--m", "--eta", "--seed", "--format", "--out", "--deterministic", "--config",
        },
        "minimax": {
            "--n", "--m", "--eps", "--max-iters", "--seed",
            "--format", "--out", "--deterministic", "--config",
        },
        "bounds": {
            "--n", "--m", "--p-target", "--format", "--out", "--deterministic", "--config",
        },
    }
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(flags)
    for name, subparser in sub.choices.items():
        options = {o for action in subparser._actions for o in action.option_strings}
        assert options - {"-h", "--help"} == flags[name], name
        _, defaults = cli.COMMANDS[name]
        assert set(defaults) == keys[name], name


# Small valid values first, then out-of-range ones.  `kind` and `format`
# draw from their flags' choices, `deterministic` is a bare flag and `out`
# always names a file under the test's own directory.
NAN, INF = float("nan"), float("inf")
FLAG_VALUES = {
    "n": [1, 2, 3, 0, -2],
    "m": [1, 2, 3, 0],
    "seeds": [1, 2, 0, -1],
    "seed": [0, 3, -1],
    "jobs": [-1, 0, 1, 2],
    "max_iters": [1, 50, 0, -1],
    "eta": [0.2, 0.5, 0.0, 1.0, -0.5, 1.5, NAN, INF],
    "eps": [0.02, 0.1, -0.1, NAN, INF],
    "c_newman": [1.0, 8.0, 0.0, -1.0, NAN, INF],
    "p_target": [0.6, 0.9, 0.5, 1.5, NAN, INF],
}


@st.composite
def cli_argv(draw, out_path):
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    command_keys = sorted(cli.COMMANDS[name][1])
    keys = draw(st.sets(st.sampled_from(command_keys)))
    # at their defaults, corpus sizes and solver iterations would outrun the time budget
    keys |= {"seeds", "max_iters"} & set(command_keys)
    argv = [name]
    for key in sorted(keys):
        option = "--" + key.replace("_", "-")
        flag = cli.FLAGS[key]
        if flag.type is bool:
            argv.append(option)
        elif key == "out":
            argv += [option, out_path]
        else:
            argv += [option, str(draw(st.sampled_from(flag.choices or FLAG_VALUES[key])))]
    return argv


@given(data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_exit_contract_over_the_spec(data, tmp_path, capsys):
    argv = data.draw(cli_argv(str(tmp_path / "report")), label="argv")
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if any(token in ("nan", "inf") for token in argv):
        assert code == 2, "a float that is not finite must be a usage error"
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert captured.out
