"""Benchmark of the qraclab pipeline: certify, decode_large, convert, transmit.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run is one process and one client in a
closed loop.  Every timed operation sits between two passes of the fixed
reference block (``refblock.py``) and its cost is reported in "ref" units,
its time divided by the mean of the two; raw seconds are printed beside
every ref figure.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, and the spans are written under ``perfbench/results/``.
``--workload all`` runs the four workloads one after another, each in its
own process.  See ``perfbench/README.md``.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads: the load is one process
# and one thread, and on a 2-vCPU machine OpenBLAS's default of two threads
# made the transmit workload slower, not faster.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qraclab; print(time.perf_counter() - t)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "qraclab" / "__init__.py").is_file():
    fail(f"no qraclab sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import qraclab  # noqa: E402

if Path(qraclab.__file__).resolve().parent != SRC / "qraclab":
    fail(f"imported qraclab from {qraclab.__file__}, not from {SRC}")

import refblock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "qrac.build_ref": "ref/code",
    "qrac.success_tables": "count/code",
    "linalg.containers": "count/op",
    "linalg.validate_ref": "ref/op",
    "pgm.builds": "count/op",
    "pgm.build_ref": "ref/op",
    "decoding.eval_ref": "ref/op",
    "minimax.iterations": "count/cert",
    "minimax.iter_ref": "ref/iteration",
    "info.capacity_calls": "count/codebook",
    "conversion.shifts": "shifts/codebook",
    "conversion.newman_attempts": "count/codebook",
    "conversion.channel_builds": "count/codebook",
    "conversion.channel_ref": "ref/codebook",
    "conversion.audit_ref": "ref/codebook",
    "conversion.validate_ref": "ref/codebook",
    "conversion.encode_ref": "ref/roundtrip",
    "conversion.decode_ref": "ref/roundtrip",
    "compression.scheme_builds": "count/codebook",
    "compression.scheme_ref": "ref/codebook",
    "compression.draws_per_message": "draws/message",
    "compression.draw_use_ratio": "ratio",
    "compression.fail_flags": "per_1000_msgs",
    "rng.streams_per_message": "count/roundtrip",
    "rng.stream_ref": "ref/roundtrip",
    "trace.overhead": "ratio",
}


def machine_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})  "
        f"blas {blas['name']} {blas.get('version', '')}  {threads}"
    )


class Loop:
    """Closed-loop timing in whole rounds.  Within a round the reference
    block runs before the first operation and after every operation, so
    each operation sits between two blocks and its ref is their mean.  The
    round's outputs are checked after the round, outside the timing."""

    def __init__(self, wl, mats):
        self.wl = wl
        self.mats = mats
        self.refs: dict[int, float] = {}  # operation index -> ref seconds
        self.ref_s: list[float] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.counts: dict = {}

    def round(self, first: int, tracer=None) -> None:
        done = []
        before = refblock.timed_block(self.mats)
        for k in range(first, first + self.wl.round_size):
            if tracer is not None:
                tracer.op = k
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                res = self.wl.op(k)
            except Exception as exc:  # an operation that raises counts as failed
                res = exc
            dt = time.perf_counter() - t0
            after = refblock.timed_block(self.mats)
            if isinstance(res, Exception):
                self.failed += 1
                self.problems.append(f"op {k}: {type(res).__name__}: {res}")
            else:
                self.refs[k] = (before + after) / 2
                self.ref_s.append(self.refs[k])
                self.op_s.append(dt)
                done.append((k, res))
            before = after
        for k, res in done:
            for key, value in res.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
            found = self.wl.audit(res)
            if found:
                self.failed += 1
                self.wrong += 1
                self.problems.append(f"op {k}: " + "; ".join(found))

    def run(self, first: int, seconds: float, min_ops: int, tracer=None) -> int:
        """Whole rounds until ``seconds`` have passed and ``min_ops``
        operations were attempted; returns the next operation index."""
        k = first
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or k - first < min_ops:
            self.round(k, tracer)
            k += self.wl.round_size
        return k

    def cost(self) -> np.ndarray:
        return np.array(self.op_s) / np.array(self.ref_s)


def bracketed(mats, fn):
    """Run ``fn`` between three reference blocks before and three after.
    Returns (its seconds, the median block seconds, its result)."""
    blocks = [refblock.timed_block(mats) for _ in range(3)]
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    blocks += [refblock.timed_block(mats) for _ in range(3)]
    return dt, statistics.median(blocks), out


def prepare(wl, seed: int, mats):
    """Set-up: build the inputs and run one warm-up operation, then check
    it outside the timing.  Returns (seconds, block seconds, result)."""

    def build():
        wl.setup(seed)
        return wl.op(0)

    dt, ref, res = bracketed(mats, build)
    found = wl.audit(res)
    if found:
        fail(f"warm-up operation failed its check: {'; '.join(found)}")
    return dt, ref, res


def self_test(wl, res) -> None:
    """The check must flag a corrupted copy of a correct result."""
    if not wl.corrupted_audit(res):
        fail("the output check accepted a corrupted result")


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import qraclab."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(wl, seed: int, seconds: float, mats) -> tuple[list[Loop], dict]:
    imports, preps = [], []
    for _ in range(SETUP_REPEATS):
        _, ref, secs = bracketed(mats, import_probe)
        imports.append((secs, ref))
        dt, ref, res = prepare(wl, seed, mats)
        preps.append((dt, ref))
    self_test(wl, res)
    setup_s = refblock.NOMINAL_S * sum(
        statistics.median(secs / ref for secs, ref in part) for part in (imports, preps)
    )
    gc.collect()
    gc.freeze()
    loop = Loop(wl, mats)
    loop.run(1, seconds, wl.min_ops)
    cost = loop.cost()
    op_s = np.array(loop.op_s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "ops_per_ref": len(cost) / cost.sum(),
        "op_p50_ref": float(np.percentile(cost, 50)),
        "op_tail_ref": float(np.percentile(cost, wl.tail_pct)),
        "peak_rss_mb": peak_mb,
    }
    raw = {
        "setup_s": "raw: imports " + ", ".join(f"{t:.3f}" for t, _ in imports)
        + " s; set-ups " + ", ".join(f"{t:.3f}" for t, _ in preps) + " s",
        "ops_per_ref": f"raw {len(op_s) / op_s.sum():.4f} ops/s",
        "op_p50_ref": f"raw {np.percentile(op_s, 50):.6f} s",
        "op_tail_ref": f"p{wl.tail_pct}, raw {np.percentile(op_s, wl.tail_pct):.6f} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"ops {loop.attempted} attempted, {loop.failed} failed; rounds of {wl.round_size}; "
          f"reference block median {statistics.median(loop.ref_s):.6f} s")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.6f} {END_TO_END[name]:<6} ({raw[name]})")
    return [loop], {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced(wl, workload: str, seed: int, seconds: float, mats) -> tuple[list[Loop], dict]:
    """Traced set-up, then an untraced and a traced half of the run."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, setup_ref, res = prepare(wl, seed, mats)
    finally:
        tracer.uninstall()
    refs = {tracing.SETUP_OP: setup_ref}
    self_test(wl, res)
    gc.collect()
    gc.freeze()
    plain = Loop(wl, mats)
    nxt = plain.run(1, seconds / 2, wl.min_ops // 2)
    loop = Loop(wl, mats)
    tracer.install()
    try:
        loop.run(nxt, seconds / 2, wl.min_ops // 2, tracer)
    finally:
        tracer.uninstall()
    refs.update(loop.refs)
    every = dict(getattr(wl, "setup_counts", {}))
    for part in (res.counts, loop.counts):
        for key, value in part.items():
            every[key] = every.get(key, 0) + value
    overhead = float(np.median(loop.cost()) / np.median(plain.cost()))
    layers = tracing.per_layer(
        tracing.Layers(tracer.spans, refs), len(loop.op_s), loop.counts, every, overhead
    )
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload}-seed{seed}.tsv"
    tracer.write(path)
    print(f"ops {plain.attempted} untraced + {loop.attempted} traced attempted, "
          f"{plain.failed + loop.failed} failed; {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    for name, value in layers.items():
        print(f"  {name:<30} {value:14.6f} {PER_LAYER_UNITS[name]}")
    return [plain, loop], {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}


def run_all(args) -> None:
    """Each workload in its own process, so set-up and memory are its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            fail(f"workload {name} exited with {out.returncode}")
        last = json.loads(out.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        run_all(args)
        return
    wl = workloads.WORKLOADS[args.workload]()
    mats = refblock.make_inputs()
    for _ in range(5):
        refblock.run_block(mats)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  {machine_line()}")
    if args.trace:
        loops, metrics = traced(wl, args.workload, args.seed, args.seconds, mats)
    else:
        loops, metrics = end_to_end(wl, args.seed, args.seconds, mats)
    for line in [p for loop in loops for p in loop.problems][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": sum(loop.wrong for loop in loops) == 0,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
