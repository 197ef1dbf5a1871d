"""ketsim benchmark: four seeded closed-loop workloads over ketsim's public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample-shots --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process runs one workload, so ``peak_rss_mb`` belongs to it
(``--workload all`` starts one child process per workload, one after
another).  A single client sends each op when the previous one has
returned and checks its output against a numpy reference.

``--trace 0`` reports the end-to-end metrics from untraced ops, each
time corrected for the host's speed (see ``hostspeed``).
``--trace 1`` alternates untraced and traced passes over the seeded op
pool and reports per-layer metrics per pass; the spans are written to
``.bench_out/``.  The last line of standard output is the result object.
"""
from __future__ import annotations

import os

# One BLAS thread: validate/circuit_matrix matmuls would otherwise spread
# over every core.  Must be set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Files  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK_DIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_out"
# The timed loop is cut into this many segments, each after a fresh set-up,
# so the set-up samples spread over the run as the op samples do.
SEGMENTS = 6
MIN_OPS = 102  # so at least ten op times lie beyond p90; a multiple of SEGMENTS
# Cache sizes of the reference machine (lscpu: 2 cores, L2 4 MiB each, L3 300 MiB).
L2_BYTES = 4 << 20
L3_BYTES = 300 << 20


def fresh_ketsim():
    """Import ketsim and its CLI from this checkout's ``src``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "ketsim" or n.startswith("ketsim.")]:
        del sys.modules[name]
    importlib.import_module("ketsim.cli")
    km = sys.modules["ketsim"]
    if Path(km.__file__).resolve().parent != (SRC / "ketsim").resolve():
        raise RuntimeError(f"imported ketsim from {km.__file__}, not from {SRC}")
    return km


def set_up(workload: str, seed: int, workdir: Path):
    """Import ketsim, generate the inputs from the seed, run one untimed warm-up op."""
    start = time.perf_counter()
    km = fresh_ketsim()
    ops = WORKLOADS[workload](km, np.random.default_rng(seed), Files(workdir), GOLDEN)
    _, warm_ok = run_op(ops[0])
    return time.perf_counter() - start, ops, warm_ok


def run_op(op) -> tuple[int, bool]:
    """Time one op; any exception, wrong exit code or failed check is a failure."""
    start = time.perf_counter_ns()
    try:
        res = op.run()
    except (Exception, SystemExit):
        return time.perf_counter_ns() - start, False
    elapsed = time.perf_counter_ns() - start
    try:
        return elapsed, bool(op.check(res))
    except Exception:
        return elapsed, False


class Loop:
    """Closed-loop client state: per-op times and failures.

    The k-th op run is ``ops[k % len(ops)]``, so successive calls keep
    cycling through the pool where the last one stopped.
    """

    def __init__(self):
        self.times_ns: list[int] = []
        self.corrected_ns: list[float] = []
        self.failed = 0
        self.wall_s = 0.0

    def _one(self, ops, tracer: Tracer | None = None) -> None:
        k = len(self.times_ns)
        if tracer is not None:
            tracer.op_id = k
        dt, ok = run_op(ops[k % len(ops)])
        self.times_ns.append(dt)
        self.failed += not ok

    def run(self, ops, count: int, tracer: Tracer | None = None) -> None:
        start = time.perf_counter()
        for _ in range(count):
            self._one(ops, tracer)
        self.wall_s += time.perf_counter() - start

    def run_for(self, ops, seconds: float, min_ops: int) -> None:
        """Run ops for ``seconds``, each between two runs of the reference kernel."""
        start = time.perf_counter()
        n = 0
        before = hostspeed.kernel_ns()
        while n < min_ops or time.perf_counter() - start < seconds:
            self._one(ops)
            after = hostspeed.kernel_ns()
            self.corrected_ns.append(hostspeed.corrected(self.times_ns[-1], before, after))
            before = after
            n += 1

    @property
    def ops_per_s(self) -> float:
        return len(self.times_ns) / self.wall_s


def end_to_end(args, workdir: Path) -> tuple[dict, int, int, dict]:
    setups, raw_setups, warm_failed, loop = [], [], 0, Loop()
    for _ in range(SEGMENTS):
        before = hostspeed.kernel_ns()
        setup_s, ops, warm_ok = set_up(args.workload, args.seed, workdir)
        setups.append(hostspeed.corrected(setup_s, before, hostspeed.kernel_ns()))
        raw_setups.append(setup_s)
        warm_failed += not warm_ok
        loop.run_for(ops, args.seconds / SEGMENTS, MIN_OPS // SEGMENTS)
    ms = np.array(loop.corrected_ns) / 1e6
    raw_ms = np.array(loop.times_ns) / 1e6
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1e3 / float(ms.mean()), "ops/s"),
        "latency_ms.p50": (float(np.percentile(ms, 50)), "ms"),
        "latency_ms.p90": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    attempted = len(loop.times_ns) + len(setups)
    failed = loop.failed + warm_failed
    info = {"latency_samples": len(loop.times_ns), "ops_in_pool": len(ops),
            "error_rate": failed / attempted, "setup_samples": len(setups),
            "uncorrected": {"setup_s": statistics.median(raw_setups),
                            "ops_per_s": 1e3 / float(raw_ms.mean()),
                            "latency_ms.p50": float(np.percentile(raw_ms, 50)),
                            "latency_ms.p90": float(np.percentile(raw_ms, 90))}}
    return metrics, attempted, failed, info


def per_layer(args, workdir: Path) -> tuple[dict, int, int, dict]:
    """Alternate untraced and traced passes over the op pool until the time is used."""
    _, ops, warm_ok = set_up(args.workload, args.seed, workdir)
    plain, traced, tracer = Loop(), Loop(), Tracer()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        plain.run(ops, len(ops))
        tracer.install()
        try:
            traced.run(ops, len(ops), tracer=tracer)
        finally:
            tracer.remove()
        passes += 1
    values = tracer.metrics(passes, traced.ops_per_s / plain.ops_per_s)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    # Share of traced op time spent inside each span name, to check each workload's design.
    op_ns = sum(traced.times_ns)
    _, busy, child = tracer.totals()
    shares = {name: round(ns / op_ns, 4) for name, ns in sorted(busy.items())}
    shares["cli.main.self"] = round((busy["cli.main"] - child["cli.main"]) / op_ns, 4)
    attempted = len(plain.times_ns) + len(traced.times_ns) + 1
    failed = plain.failed + traced.failed + (not warm_ok)
    info = {
        "passes": passes,
        "ops_per_pass": len(ops),
        "busy_share_of_op_time": shares,
        "working_set": {
            "largest_matrix_bytes": tracer.largest_matrix_bytes,
            "l2_bytes": L2_BYTES,
            "l3_bytes": L3_BYTES,
            "fits_l2": tracer.largest_matrix_bytes <= L2_BYTES,
            "fits_l3": tracer.largest_matrix_bytes <= L3_BYTES,
            "note": "computed from matrix shapes and dtypes, not measured",
        },
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, attempted, failed, info


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    """Run every workload in its own process and print each metric by name and unit."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        if code == 0 and name == next(iter(WORKLOADS)):
            print(lines[0])  # the environment line
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"error_rate={result['failed'] / result['attempted']:.6g} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        code |= not result["correct"]
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "ketsim" / "__init__.py", GOLDEN) if not p.exists()]
    if missing:
        print(f"error: not a ketsim checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, info = measure(args, workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
