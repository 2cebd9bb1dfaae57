"""Run the benchmark on several seeds and report each metric's spread.

    python3 glsbench/spread.py --seeds 1-10 [--workloads glsqr_dense,...]
                               [--trace 0] [--save set1.json] [--against set0.json]

Each run is a fresh ``run.py`` process. For every workload and metric it
prints the median of the runs, the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), and the metric's bound from
``BENCHMARK.json``. With ``--against`` it also prints how far each median
moved from a set saved earlier with ``--save``. With one seed it is the one
command that prints every metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("pass time_to_solution_s"):
            result["pass_times"] = [float(t) for t in line.split()[2:]]
    return result


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against) as fh:
            before = json.load(fh)
    results = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [_run(workload, s, spec["run_seconds"], args.trace) for s in args.seeds]
        results[workload] = runs
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        print(f"{workload}: {len(runs)} runs, correct={correct}, "
              f"failed_ratio={failed / attempted:.3g} ({failed}/{attempted})")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {name:34s} median {median:12.6g} {first['unit']:6s}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median) if median else float("inf")
                line += f" spread {spread:7.3f}"
            if name in bounds:
                line += f" bound {bounds[name]}"
            if workload in before:
                old = statistics.median(r["metrics"][name]["value"] for r in before[workload])
                if old:
                    line += f" vs saved {median / old - 1:+.3f}"
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(results, fh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
