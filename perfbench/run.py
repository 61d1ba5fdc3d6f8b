"""Benchmark of the maf verification library.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs one workload as a single-process closed loop (one client: the next op
starts when the previous one ends), gates every op for correctness, prints a
human-readable table, an environment record, and as the last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` ops
alternate between untraced and traced, the metrics are the per-layer ones,
and the spans are written to ``.bench_out/``.  Op and set-up timings are
scaled to a reference host speed (speed.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 9
MIN_TIMED_OPS = 2

# Set-up as a user pays it: a fresh interpreter imports maf, loads the
# configs and builds the systems.  Interpreter start-up is not counted.  The
# child times the calibration unit just before and after, in its own process.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import unit_ms
before = unit_ms()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from maf.config import build_system, load_bundled, load_config
for name in sys.argv[3:]:
    build_system(load_config(name) if name.endswith(".json") else load_bundled(name))
elapsed = time.perf_counter() - t0
print(elapsed, before, unit_ms())
"""


def blas_threads(n_cpu: int) -> None:
    """Cap BLAS threads at the CPUs this process may use, unless the caller chose."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n_cpu))


def environment(seed: int, n_cpu: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": n_cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_thread_count(),
        "commit": git_commit(),
        "seed": seed,
    }


def blas_thread_count() -> int | str:
    """Threads the BLAS that numpy loaded will use, asked of the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(l.split()[0] for l in fh if l.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def setup_child(configs: list[str]) -> tuple[float, float, float]:
    """Set-up seconds of one fresh process, with its calibration units before and after."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, HERE, SRC, *configs],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, before, after = map(float, done.stdout.split())
    return elapsed, before, after


def measure_setup(configs: list[str]) -> tuple[float, float]:
    """Median set-up time over fresh processes, at reference speed and on the wall clock."""
    from speed import at_reference

    runs = [setup_child(configs) for _ in range(SETUP_REPEATS)]
    return statistics.median(at_reference(*r) for r in runs), statistics.median(r[0] for r in runs)


class Loop:
    """Runs and gates ops one after another, counting attempts and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, run=lambda fn: fn()) -> float:
        """Run and gate one op; return its latency in seconds."""
        op = next(self.ops)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run(op.execute)
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return elapsed
        elapsed = time.perf_counter() - t0
        problems = op.gate(out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed


def run_plain(loop: Loop, seconds: float, speed) -> tuple[list[float], list[float]]:
    """Timed closed loop; op latencies at reference speed and on the wall clock."""
    scaled, wall = [], []
    start = time.perf_counter()
    while len(wall) < MIN_TIMED_OPS or time.perf_counter() - start < seconds:
        wall.append(loop.step())
        scaled.append(speed.scale(wall[-1]))
    return scaled, wall


def run_traced(loop: Loop, seconds: float, speed, tracer) -> tuple[list[float], list[float], dict]:
    """Alternate untraced and traced ops, so host drift hits both alike.

    Returns untraced and traced latencies at reference speed, and each
    traced op's speed factor.
    """
    plain, traced, factors = [], [], {}
    start = time.perf_counter()
    i = 0
    while not traced or time.perf_counter() - start < seconds:
        if i % 2:
            wall = loop.step(lambda fn: tracer.run_op(i, fn))
            traced.append(speed.scale(wall))
            factors[i] = traced[-1] / wall
        else:
            plain.append(speed.scale(loop.step()))
        i += 1
    return plain, traced, factors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "maf", "__init__.py")):
        print(f"no maf sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    n_cpu = len(os.sched_getaffinity(0))
    blas_threads(n_cpu)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, n_cpu)

    loop = Loop(wl.ops(args.seed))
    if args.trace:
        import tracing

        loop.step()  # warm-up: gated and counted, latency not kept
        tracer = tracing.Tracer()
        speed = wl.speed()
        plain, traced, factors = run_traced(loop, args.seconds, speed, tracer)
        nesting = tracer.nesting_errors()
        loop.problems.extend(nesting)
        metrics = tracing.layer_metrics(tracer.spans, factors, traced, plain)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"), env)
        timed, wall_info = len(traced), ""
    else:
        nesting = []
        setup_child(wl.configs)  # fills the bytecode cache; not counted
        setup_s, setup_wall_s = measure_setup(wl.configs)
        loop.step()  # warm-up: gated and counted, latency not kept
        speed = wl.speed()
        lat, wall = run_plain(loop, args.seconds, speed)
        metrics = {
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (statistics.quantiles(lat, n=100, method="inclusive")[wl.tail_pct - 1] * 1e3, "ms"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "pass_ratio": (1 - loop.failed / loop.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        timed = len(lat)
        wall_info = (
            f"  wall clock: op p50 {statistics.median(wall) * 1e3:.1f} ms, "
            f"{len(wall) / sum(wall):.4g} ops/s, setup {setup_wall_s:.4f} s\n"
        )
        wall_info += (
            f"  calibration unit median {statistics.median(speed.units):.3f} ms "
            f"(reference {speed.ref_ms} ms)\n"
        )

    for line in loop.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  timed ops {timed}  "
          f"attempted {loop.attempted}  failed {loop.failed}  "
          f"fail_ratio {loop.failed / loop.attempted:.4f}  tail p{wl.tail_pct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(wall_info, end="")
    print(json.dumps({"env": env}))
    result = {
        "correct": loop.failed == 0 and not nesting,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
