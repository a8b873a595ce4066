"""Golden reports: the exit code and the ``--format json`` stdout of the
tracked ``--deterministic`` runs, pinned byte for byte.

``golden_reports.json`` maps each case id to its ``argv`` (without
``--deterministic``, which every run adds), its ``exit`` code and its
``stdout``.  A change that moves a report on purpose regenerates the file and
says in its change note which values moved and why::

    PYTHONPATH=src python tests/test_golden_reports.py

That rewrites ``tests/golden_reports.json`` from the runs listed in ``RUNS``,
each through ``cli.main`` in one process, with ``QRACLAB_SEED`` unset.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from qraclab import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

RUNS = [
    "demo-2to1",
    "suite --kind pgm --seeds 6",
    "suite --kind hamming --seeds 4",
    "suite --kind minimax --seeds 3",
    "suite --kind info --seeds 5",
    "suite --kind compress --seeds 4",
    "suite --kind convert",
    "suite --kind bounds --seeds 4",
    "convert",
    "convert --n 3 --m 2",
    "convert --n 4 --m 2 --seed 5",
    "compress",
    "compress --n 4 --m 3",
    "compress --n 3 --m 2",
    "minimax",
    "minimax --n 4 --m 2",
    "minimax --n 5 --m 3",
    "bounds",
    # Runs that do not certify: exit 1 with the best iterate's report.
    "minimax --n 4 --m 2 --max-iters 1 --eps 0",
    "minimax --n 6 --m 2 --max-iters 3 --eps 0 --seed 3",
    "suite --kind minimax --max-iters 1",
    "suite --kind minimax --eps 0 --max-iters 2 --seeds 4",
]


def case_id(run: str) -> str:
    return "-".join(word.lstrip("-") for word in run.split())


def run_report(run: str) -> tuple[int, str]:
    """Exit code and stdout of ``qraclab RUN --deterministic``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*run.split(), "--deterministic"])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", RUNS, ids=case_id)
def test_report_matches_golden(run, golden, monkeypatch):
    monkeypatch.delenv("QRACLAB_SEED", raising=False)
    expected = golden[case_id(run)]
    assert expected["argv"] == run.split()
    code, stdout = run_report(run)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def test_golden_file_lists_every_run(golden):
    assert list(golden) == [case_id(run) for run in RUNS]


if __name__ == "__main__":
    os.environ.pop("QRACLAB_SEED", None)
    table = {}
    for run in RUNS:
        code, stdout = run_report(run)
        table[case_id(run)] = {"argv": run.split(), "exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
