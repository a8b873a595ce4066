"""Timing wrappers around qraclab's public functions, installed from outside
the program, and the per-layer figures derived from the spans they record.

``Tracer.install`` replaces every public function of every loaded qraclab
module with a wrapper, in every module namespace that binds it (for
example ``build_pgm`` in ``pgm``, ``conversion`` and the package itself),
and wraps the ``DensityMatrix``/``Povm`` validators.  Each call records a
span (name, start, end, parent span, operation id) in memory; ``write``
saves them when the run ends.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

VALIDATORS = (("linalg", "DensityMatrix"), ("linalg", "Povm"))
SETUP_OP = -1


def _qraclab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qraclab"]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.op = SETUP_OP
        self._open: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def install(self) -> None:
        modules = _qraclab_modules()
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, bound, fn))
                            setattr(owner, bound, wrapper)
        linalg = sys.modules["qraclab.linalg"]
        for layer, cls_name in VALIDATORS:
            cls = getattr(linalg, cls_name)
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op}\n")


class Layers:
    """Sums over recorded spans, each span's time divided by the reference
    block time of the operation (or set-up) it belongs to."""

    def __init__(self, spans: list, refs: dict):
        self.spans = spans
        self.refs = refs

    def _top(self, names, ops: bool):
        """Spans named in ``names`` with no such span above them, from
        traced operations only (``ops``) or from operations and set-up."""
        covered = np.zeros(len(self.spans), dtype=bool)
        for idx, (name, _, _, parent, op) in enumerate(self.spans):
            inside = parent >= 0 and covered[parent]
            covered[idx] = inside or name in names
            if name in names and not inside and (op != SETUP_OP or not ops):
                yield self.spans[idx]

    def count(self, names, ops: bool = True) -> int:
        return sum(1 for name, _, _, _, op in self.spans
                   if name in names and (op != SETUP_OP or not ops))

    def ref_time(self, names, ops: bool = True) -> float:
        return sum((end - start) / self.refs[op] for _, start, end, _, op in self._top(names, ops))


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


CONSTRUCTORS = {
    "qrac.build_standard_2to1",
    "qrac.build_identity_encoding",
    "qrac.build_tensor_power",
    "qrac.build_random_qrac",
}
CONTAINERS = {"linalg.DensityMatrix", "linalg.Povm"}
DECODING = {"decoding.expected_hamming_exact", "decoding.identification_bound_check"}


def per_layer(layers: Layers, ops: int, counts: dict, every: dict, overhead: float) -> dict:
    """Every per-layer figure.  Figures per operation, iteration or round
    trip come from the traced operations (spans and ``counts``); figures
    per code or codebook also take in set-up and its warm-up operation
    (``every``), where some workloads build theirs.  A figure whose layer
    the workload never calls reads 0."""
    codes = layers.count(CONSTRUCTORS, ops=False)
    books = layers.count({"conversion.build_rac"}, ops=False)
    trips = counts.get("messages", 0)
    iterations = counts.get("iterations", 0)
    return {
        "qrac.build_ref": _per(layers.ref_time(CONSTRUCTORS, ops=False), codes),
        "qrac.success_tables": _per(layers.count({"qrac.success_table"}, ops=False), codes),
        "linalg.containers": _per(layers.count(CONTAINERS), ops),
        "linalg.validate_ref": _per(layers.ref_time(CONTAINERS), ops),
        "pgm.builds": _per(layers.count({"pgm.build_pgm"}), ops),
        "pgm.build_ref": _per(layers.ref_time({"pgm.build_pgm"}), ops),
        "decoding.eval_ref": _per(layers.ref_time(DECODING), ops),
        "minimax.iterations": _per(iterations, counts.get("certificates", 0)),
        "minimax.iter_ref": _per(layers.ref_time({"minimax.solve_worstcase"}), iterations),
        "info.capacity_calls": _per(
            layers.count({"info.max_channel_capacity"}, ops=False), books
        ),
        "conversion.shifts": _per(every.get("shifts", 0), books),
        "conversion.newman_attempts": _per(every.get("newman_attempts", 0), books),
        "conversion.channel_builds": _per(
            layers.count({"conversion.effective_channel"}, ops=False), books
        ),
        "conversion.channel_ref": _per(
            layers.ref_time({"conversion.effective_channel"}, ops=False), books
        ),
        "conversion.audit_ref": _per(
            layers.ref_time({"conversion.verify_no_bad_event"}, ops=False), books
        ),
        "conversion.validate_ref": _per(
            layers.ref_time({"conversion.validate_rac"}, ops=False), books
        ),
        "conversion.encode_ref": _per(layers.ref_time({"conversion.rac_encode"}), trips),
        "conversion.decode_ref": _per(layers.ref_time({"conversion.rac_decode"}), trips),
        "compression.scheme_builds": _per(
            layers.count({"compression.build_scheme"}, ops=False), books
        ),
        "compression.scheme_ref": _per(
            layers.ref_time({"compression.build_scheme"}, ops=False), books
        ),
        "compression.draws_per_message": _per(counts.get("draws_made", 0), trips),
        "compression.draw_use_ratio": _per(
            counts.get("draws_needed", 0), counts.get("draws_made", 0)
        ),
        "compression.fail_flags": _per(1000.0 * counts.get("fail_flags", 0), trips),
        "rng.streams_per_message": _per(layers.count({"rng.stream"}), trips),
        "rng.stream_ref": _per(layers.ref_time({"rng.stream"}), trips),
        "trace.overhead": overhead,
    }
