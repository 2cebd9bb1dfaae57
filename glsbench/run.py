"""glskit benchmark: time to a certified solution, one workload per process.

    python3 glsbench/run.py --workload glsqr_dense --seed 1 --seconds 20 --trace 0

Runs the workload's pipeline (set-up, then every right-hand side taken to a
certified solution) again and again until ``--seconds`` have passed, each
pass on a fresh problem drawn from ``--seed``. With ``--trace 0`` it reports
the end-to-end metrics as medians over the passes; with ``--trace 1`` it
runs one untraced pass and at least two traced passes of the same problem
and reports the per-layer metrics, the tracing overhead, and whether the
counts repeated exactly. The last line of standard output is the result as
JSON. The package is imported from ``src/`` beside this directory; without
it the benchmark exits with an error.
"""

from __future__ import annotations

import os

# one BLAS thread: the single-threaded baseline; set before numpy loads
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# a cheap set-up is repeated within a pass, up to this many times and this
# much time, so that setup_s is a median even where a run has few passes
SETUP_REPEATS = 5
SETUP_REPEAT_BUDGET_S = 1.0

END_TO_END_UNITS = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MiB",
    "certified_ratio": "1",
}


def _import_package():
    """Import glskit from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import glskit

    if os.path.dirname(os.path.dirname(os.path.abspath(glskit.__file__))) != SRC:
        raise ImportError(f"glskit was imported from {glskit.__file__}, not from {SRC}")
    return glskit


def _pass_seed(seed, i):
    """Seed of the i-th pass of a run: distinct problems, fixed by ``seed``."""
    return int(numpy.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Sample:
    """One pass of a workload: its set-up and solve times and its checks."""

    setup_s: float
    solve_s: float
    attempted: int
    failed: int
    forward_error: float = 0.0

    @property
    def time_to_solution_s(self):
        return self.setup_s + self.solve_s


def _run_pass(workload, inputs, setups=1):
    """Set up (``setups`` times while that stays cheap), then solve.

    ``setup_s`` is the median of the set-ups. An exception fails every
    operation of the pass, and the time spent still counts.
    """
    times, solve_s = [], 0.0
    failed, error = workload.operations, 0.0
    t = time.perf_counter()
    try:
        while not times or (len(times) < setups and sum(times) < SETUP_REPEAT_BUDGET_S):
            state = None  # release the previous set-up before repeating it
            state = workload.setup(inputs)
            times.append(time.perf_counter() - t)
            t = time.perf_counter()
        failed, error = workload.solve(state)
    except Exception:  # a failing pass is counted, never allowed to end the run
        traceback.print_exc(file=sys.stderr)
    if times:
        solve_s = time.perf_counter() - t
    else:
        times.append(time.perf_counter() - t)
    return Sample(
        setup_s=statistics.median(times), solve_s=solve_s,
        attempted=workload.operations, failed=failed, forward_error=error,
    )


def _timed(workload, args):
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < args.seconds:
        inputs = workload.inputs(_pass_seed(args.seed, len(samples)))
        samples.append(_run_pass(workload, inputs, SETUP_REPEATS))
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    metrics = {
        "time_to_solution_s": statistics.median(s.time_to_solution_s for s in samples),
        "setup_s": statistics.median(s.setup_s for s in samples),
        "solve_s": statistics.median(s.solve_s for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certified_ratio": 1.0 - failed / attempted,
    }
    units = END_TO_END_UNITS
    return samples, metrics, units, True


def _traced(workload, args):
    from spans import PER_LAYER, Tracer, layer_metrics

    inputs = workload.inputs(_pass_seed(args.seed, 0))
    start = time.perf_counter()
    untraced = _run_pass(workload, inputs)
    tracer = Tracer()
    tracer.install()
    samples, per_pass, spans = [untraced], [], []
    while len(per_pass) < 2 or time.perf_counter() - start < args.seconds:
        tracer.active = True
        sample = _run_pass(workload, inputs)
        tracer.active = False
        samples.append(sample)
        spans.append(tracer.take())
        per_pass.append(layer_metrics(spans[-1], sample))
    tracer.uninstall()

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in PER_LAYER}
    traced_tts = statistics.median(s.time_to_solution_s for s in samples[1:])
    metrics["trace.overhead_s"] = traced_tts - untraced.time_to_solution_s
    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    units["trace.overhead_s"] = "s"

    # the same problem must give exactly the same counts on every traced pass
    counts = [name for name, unit in units.items() if unit == "count"]
    repeated = all(p[name] == per_pass[0][name] for p in per_pass for name in counts)
    if not repeated:
        for name in counts:
            print(f"counts differ: {name} {[p[name] for p in per_pass]}", file=sys.stderr)

    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": spans}, fh)
    return samples, metrics, units, repeated


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    glskit = _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = WORKLOADS[args.workload](scratch)
        measure = _traced if args.trace else _timed
        samples, metrics, units, repeated = measure(workload, args)

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(samples),
        "blas_threads": BLAS_PIN,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "glskit": glskit.__version__,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print("pass time_to_solution_s " + " ".join(f"{s.time_to_solution_s:.3f}" for s in samples))
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
