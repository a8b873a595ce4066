"""The benchmark's workloads run against this tree: set-up, one operation,
its audit, and the audit of a corrupted copy.  The audits read the dense
views the benchmark reads (``q.encoder[x].mat``, ``dec.elements``,
``pg.full.elements``, ``sol.measurement.elements``, ``cb.schemes``), so a
change to those views fails here rather than in a benchmark run."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = writes_bytecode


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


def test_traced_layer_names_resolve():
    """Each span name the tracer's per-layer figures read is a public
    function of its module, so the tracer wraps it; a name that no longer
    resolves would drop its spans from a traced run without an error."""
    tracing = _perfbench_module("tracing")
    for name in sorted(tracing.CONSTRUCTORS | tracing.DECODING):
        layer, attr = name.split(".")
        module = importlib.import_module(f"qraclab.{layer}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


@pytest.mark.parametrize("name", ["certify", "decode_large", "convert", "transmit"])
def test_workload_op_passes_its_audit(workloads, name):
    wl = workloads.WORKLOADS[name]()
    wl.setup(1)
    res = wl.op(0)
    assert wl.audit(res) == []
    assert wl.corrupted_audit(res)
