"""The benchmark's workloads run against this tree: set-up, one operation,
its audit, and the audit of a corrupted copy.  The audits read the dense
views the benchmark reads (``q.encoder[x].mat``, ``dec.elements``,
``pg.full.elements``, ``sol.measurement.elements``, ``cb.schemes``), so a
change to those views fails here rather than in a benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = writes_bytecode
    return workloads


@pytest.mark.parametrize("name", ["certify", "decode_large", "convert", "transmit"])
def test_workload_op_passes_its_audit(workloads, name):
    wl = workloads.WORKLOADS[name]()
    wl.setup(1)
    res = wl.op(0)
    assert wl.audit(res) == []
    assert wl.corrupted_audit(res)
