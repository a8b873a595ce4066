"""The rules every frozen record of the package keeps.

A record that holds an ndarray compares, and hashes, by identity: a
field-wise ``==`` would compare its arrays elementwise and raise.  Every
other record compares field-wise.  ``HOLDING_ARRAYS`` names every record
of the first kind, and the fixture builds one of each.  An array a record
exposes is read-only where the package forms it, and a constructor that
freezes its input freezes its own copy, never the caller's array.  A
record whose builder has already checked its values is made by the one
unchecked constructor, ``linalg._unchecked``.
"""

import copy
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qraclab
from qraclab.compression import build_scheme, exact_output_distribution
from qraclab.conversion import build_rac, effective_channel, validate_rac
from qraclab.decoding import expected_hamming_exact
from qraclab.info import ClassicalChannel, max_channel_capacity
from qraclab.linalg import BitPovms, DensityMatrix, GramPovm, GramStates, Povm
from qraclab.minimax import solve_worstcase
from qraclab.pgm import build_pgm
from qraclab.qrac import Ensemble, build_standard_2to1

PACKAGE = Path(qraclab.__file__).parent
HOLDING_ARRAYS = [
    "DensityMatrix",
    "GramStates",
    "Povm",
    "BitPovms",
    "GramPovm",
    "Ensemble",
    "HammingReport",
    "ClassicalChannel",
    "MaxCapacityResult",
    "CompressionScheme",
    "ExactOutput",
    "GameSolution",
    "RacCodebook",
    "RacValidation",
]
# every array a record exposes, as "record.attribute"; ShiftScheme is one
# shift's relabelled scheme, from the codebook's ``schemes``
EXPOSED_ARRAYS = [
    "CompressionScheme.z",
    "CompressionScheme.ratio",
    "CompressionScheme.a",
    "CompressionScheme.bins",
    "CompressionScheme.accept",
    "ShiftScheme.z",
    "ShiftScheme.ratio",
    "MaxCapacityResult.sigma",
    "GameSolution.per_x",
    "GameSolution.priors",
    "HammingReport.per_bit_error",
    "RacValidation.table",
    "ExactOutput.dist",
]


def _records() -> list[type]:
    """Every dataclass defined in a module of the package."""
    records = []
    for info in pkgutil.iter_modules(qraclab.__path__):
        module = importlib.import_module(f"qraclab.{info.name}")
        records += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        ]
    return records


def _holds_array(cls: type) -> bool:
    return any("ndarray" in str(f.type) for f in dataclasses.fields(cls))


@pytest.fixture(scope="module")
def built():
    """One instance of each record under test, from the standard code."""
    q = build_standard_2to1()
    ens = Ensemble.uniform(q)
    pg = build_pgm(ens, full_table=True)
    channel = effective_channel(q)
    scheme = build_scheme(channel, 0.1)
    cb = build_rac(q, 0.3, seed=0)
    return {
        "DensityMatrix": q.encoder[0],
        "GramStates": q.encoder,
        "Povm": q.decoders[0],
        "BitPovms": q.decoders,
        "GramPovm": pg.full,
        "Ensemble": ens,
        "HammingReport": expected_hamming_exact(q, ens, pg),
        "ClassicalChannel": channel,
        "MaxCapacityResult": max_channel_capacity(channel),
        "CompressionScheme": scheme,
        "ShiftScheme": cb.schemes[1],
        "ExactOutput": exact_output_distribution(scheme, 0),
        "RacCodebook": cb,
        "RacValidation": validate_rac(cb, q),
        "GameSolution": solve_worstcase(q),
    }


def test_records_holding_arrays_compare_by_identity():
    records = _records()
    assert {cls.__name__ for cls in records if _holds_array(cls)} == set(HOLDING_ARRAYS)
    for cls in records:
        assert cls.__dataclass_params__.eq is not _holds_array(cls), cls.__name__


@pytest.mark.parametrize("name", HOLDING_ARRAYS)
def test_record_compares_and_hashes_without_raising(built, name):
    a = built[name]
    assert type(a).__name__ == name
    assert a == a
    assert a != copy.copy(a)
    assert hash(a) == hash(a)
    assert a in [a]


def test_encoder_members_compare_without_raising():
    q = build_standard_2to1()
    assert q.encoder[0] != q.encoder[1]
    # each index forms a new matrix, so no member is found by identity
    assert q.encoder[0] not in q.encoder


@pytest.mark.parametrize("name", EXPOSED_ARRAYS)
def test_exposed_array_is_read_only(built, name):
    record, attribute = name.split(".")
    array = getattr(built[record], attribute)
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0


def test_constructors_leave_the_callers_arrays_writable():
    """Each input is already of the dtype its constructor holds, so a
    constructor that kept it without a copy would freeze it."""
    vecs = np.eye(3, dtype=complex)[1:, :, None]
    leftover = np.eye(3, dtype=complex)[:, :1]
    mat = np.eye(2, dtype=complex) / 2
    factors = np.eye(2, dtype=complex)[:, :, None]
    f0s = np.diag([1.0, 0.0]).astype(complex)[None]
    elements = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    table = np.eye(2)
    prior = np.full(2, 0.5)
    GramPovm(vecs, leftover)
    DensityMatrix(mat)
    GramStates(factors)
    BitPovms(f0s)
    Povm(elements)
    ClassicalChannel(table)
    Ensemble(prior, GramStates(factors))
    for array in (vecs, leftover, mat, factors, f0s, elements, table, prior):
        assert array.flags.writeable


def test_one_unchecked_constructor():
    """``object.__new__`` appears once in the package, in ``linalg._unchecked``."""
    found = {path.name: path.read_text().count("object.__new__") for path in PACKAGE.glob("*.py")}
    assert {name: count for name, count in found.items() if count} == {"linalg.py": 1}
