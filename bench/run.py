"""dpase benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload nsweep|grid|edgelist --seed N --seconds S --trace 0|1

The dpase package is imported from the checkout's ``src`` directory and
nothing is installed. A run sets up ``SETUP_ROUNDS`` times (the import
time of a fresh interpreter, input generation and one warm-up CLI call)
and reports the median as ``setup_s``. It then repeats the workload's
pass while the next one is expected to end within ``--seconds``, and
checks every pass's output. The last line on stdout is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` prints the end-to-end metrics: medians over passes for
``wall_s`` and ``cpu_s``, the process's ``peak_rss_mb``, ``setup_s``,
and the quality of the first pass's output (later passes must match it
byte for byte). ``--trace 1`` alternates untraced and traced passes,
then makes one pass under ``tracemalloc`` for per-call peak memory, and
prints the per-layer metrics; its spans go to ``bench/out/``.

A failed command or output check counts in ``failed`` and makes the exit
code 1. Run metadata goes to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from spans import Recorder, instrument

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK_ROOT = BENCH / "work"
OUT_ROOT = BENCH / "out"
SETUP_ROUNDS = 5


# Every end-to-end metric: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "accuracy_dp_mean": ("ratio", "higher"),
    "fnorm_pv_mean": ("per_vertex", "lower"),
}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call(argv: list[str]) -> int:
    """Run one CLI command in this process; an escaped exception is a failure."""
    import dpase.cli

    try:
        return dpase.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


@dataclass
class Tally:
    """Commands attempted and failed, the problems found, first-pass quality."""

    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    private_errors: list[float] | None = None
    fnorm_per_vertex: list[float] | None = None
    first_outputs: dict = field(default_factory=dict)


def run_pass(steps, recorder=None) -> tuple[float, float, list[int]]:
    """Run every command of one pass; return its wall and CPU seconds and exit codes."""
    for step in steps:
        for path in step.outputs:
            path.unlink(missing_ok=True)
    codes = []
    cpu0, t0 = _cpu_s(), perf_counter()
    for step in steps:
        if recorder is None:
            codes.append(_call(step.argv))
        else:
            with recorder.span("cli.main") as span:
                span.attrs["command"] = step.argv[0]
                codes.append(_call(step.argv))
    return perf_counter() - t0, _cpu_s() - cpu0, codes


def verify(steps, codes: list[int], tally: Tally) -> None:
    """Untimed output checks of one pass; every failure is counted.

    Outputs must also match the first pass byte for byte.
    """
    first = tally.passes == 0
    tally.passes += 1
    errors, fnorms = [], []
    for step, code in zip(steps, codes):
        tally.attempted += 1
        if code != 0:
            problems = [f"{step.argv[0]}: exit code {code}"]
        else:
            try:
                outcome = step.check()
            except Exception as exc:  # unreadable output fails its check
                traceback.print_exc()
                problems = [f"{step.argv[0]}: check raised {exc!r}"]
            else:
                problems = list(outcome.problems)
                errors += outcome.private_errors
                fnorms += outcome.fnorm_per_vertex
                for path in step.outputs:
                    data = path.read_bytes()
                    if first:
                        tally.first_outputs[path] = data
                    elif data != tally.first_outputs.get(path):
                        problems.append(f"{path.name}: differs from the first pass")
        if problems:
            tally.failed += 1
            tally.problems += problems
    if first:
        tally.private_errors, tally.fnorm_per_vertex = errors, fnorms


def _mean(values) -> float:
    """Mean, or 0.0 when a failed first pass left nothing to average."""
    return statistics.fmean(values) if values else 0.0


# Imports the program and makes its first LAPACK call in a fresh interpreter.
_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import dpase.cli
probe = np.random.default_rng(0).random((64, 64))
np.linalg.eigh(probe + probe.T)
print(time.perf_counter() - t0)
"""


def _import_seconds() -> float:
    """Import time of a fresh interpreter, which a run pays only once."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _setup(workload, work: Path, seed: int) -> float:
    """One set-up round: imports, fresh inputs and one warm-up call; returns seconds."""
    imports_s = _import_seconds()
    t0 = perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.setup(work, seed)
    code = _call(workload.warmup(work, seed))
    if code != 0:
        raise RuntimeError(f"warm-up command exited with code {code}")
    return imports_s + perf_counter() - t0


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, run passes for about ``seconds``, verify; return (tally, metrics, detail)."""
    rounds = [_setup(workload, work, seed) for _ in range(SETUP_ROUNDS)]
    steps = workload.steps(work, seed)
    tally = Tally()
    walls, cpus, traced_walls = [], [], []
    recorder = Recorder()
    begin = perf_counter()
    while True:
        wall, cpu, codes = run_pass(steps)
        verify(steps, codes, tally)
        walls.append(wall)
        cpus.append(cpu)
        if trace:
            recorder.run = f"traced-{len(traced_walls)}"
            with instrument(recorder, layers.TARGETS):
                wall, _, codes = run_pass(steps, recorder)
            verify(steps, codes, tally)
            traced_walls.append(wall)
        per_round = statistics.median(walls) + (statistics.median(traced_walls) if trace else 0.0)
        if perf_counter() - begin + per_round > seconds:
            break

    detail = {"passes": len(walls), "walls_s": walls, "cpus_s": cpus,
              "setup_rounds_s": rounds}
    if trace:
        recorder.run = "memory"
        tracemalloc.start()
        try:
            with instrument(recorder, layers.TARGETS):
                _, _, codes = run_pass(steps, recorder)
        finally:
            tracemalloc.stop()
        verify(steps, codes, tally)
        metrics = layers.per_layer_metrics(recorder.spans, traced_walls, walls)
        specs = layers.metric_specs()
        detail["traced_walls_s"] = traced_walls
        OUT_ROOT.mkdir(exist_ok=True)
        spans_path = OUT_ROOT / f"spans-{workload.name}-seed{seed}.json"
        recorder.dump(spans_path, {**run_metadata(workload, seed), **detail})
        detail["spans"] = str(spans_path)
    else:
        private_errors = tally.private_errors or []
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(rounds),
            "ok_ratio": 1.0 - tally.failed / tally.attempted,
            "accuracy_dp_mean": 1.0 - _mean(private_errors),
            "fnorm_pv_mean": _mean(tally.fnorm_per_vertex or []),
        }
        specs = END_TO_END
    result = {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in specs.items()}
    return tally, result, detail


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run_metadata(workload, seed: int) -> dict:
    """Seed, workload config and reason, versions, BLAS and core counts."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": workload.name, "why": workload.why, "config": workload.config(seed),
        "seed": seed, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dpase" / "__init__.py").is_file():
        print(f"bench: no dpase sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        tally, result, detail = measure(
            workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({**run_metadata(workload, args.seed), **detail}), file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
