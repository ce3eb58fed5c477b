"""Child process of the benchmark: imports the package, runs one workload.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src`` and
the BLAS thread caps in the environment.  Prints ``{"ready": true}`` once the
package is imported and the inputs exist (the set-up point), then, unless
``--setup-only``, one JSON line with the raw measurements.  Untraced, it
also asks between passes, about every ``PROBE_EVERY`` seconds of passes, for
a set-up probe (``{"probe": true}``) and waits for a line on standard input
while the runner makes one; that pause is not measured.

Untraced mode times passes for about ``--seconds`` after a warm-up of
short passes, wrapping only ``fem.solve_domain`` for the per-solve times.
Traced mode first makes one untraced pass (the overhead baseline), then
traced passes with every public function wrapped and tracemalloc on, until
the same ``--seconds`` are up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import steklov_annulus
import tracing
import workloads

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = Path(".perfbench_out")
WARMUP_S = 1.0     # passes ending this soon after the start are not timed
PROBE_EVERY = 3.0  # seconds of passes between set-up probe requests


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def machine_record():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "processes": 1,
        "jobs": 1,
    }


class Tally:
    """Checked-row totals; rows are counted, not kept, so memory stays flat."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.used_max = 0.0
        self.failed_names = []

    def add(self, rows):
        self.attempted += len(rows)
        for r in rows:
            if r.used is not None:
                self.used_max = max(self.used_max, r.used)
            if not r.ok:
                self.failed += 1
                if len(self.failed_names) < 20:
                    self.failed_names.append(r.name)


def request_probe():
    """Pause while the runner measures one more set-up; return the pause."""
    t0 = perf_counter()
    print(json.dumps({"probe": True}), flush=True)
    sys.stdin.readline()
    return perf_counter() - t0


def run_passes(workload, inputs, ctx, deadline, tally, first_index=0, warmup_s=0.0,
               probe_every=0.0):
    """Timed passes until ``deadline``, at least one.

    Returns their walls and row counts and the number of passes made.  Passes
    that end within ``warmup_s`` of the start are warm-up, checked but not
    timed; only short passes end that early.  A pass starts only while half a
    mean pass still fits, so a run measures about as long as it was given.
    With ``probe_every`` a set-up probe is requested between passes that
    often; the deadline moves by each pause.
    """
    start = last_probe = perf_counter()
    walls, counts = [], []
    index = first_index
    while not walls or perf_counter() + 0.5 * sum(walls) / len(walls) < deadline:
        t0 = perf_counter()
        with ctx.tracer.span(tracing.ROOT):
            rows = workload.run_pass(inputs, index, ctx)
        t1 = perf_counter()
        tally.add(rows)
        index += 1
        if t1 - start >= warmup_s:
            walls.append(t1 - t0)
            counts.append(len(rows))
        if probe_every and t1 - last_probe >= probe_every:
            pause = request_probe()
            start, deadline = start + pause, deadline + pause
            last_probe = perf_counter()
    return walls, counts, index - first_index


def main(argv=None):
    args = parse_args(argv)
    package_dir = Path("src", "steklov_annulus").resolve()
    if Path(steklov_annulus.__file__).resolve().parent != package_dir:
        print(f"steklov_annulus imported from {steklov_annulus.__file__}, "
              f"expected {package_dir}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    deadline = perf_counter() + args.seconds
    timer = tracing.Tracer(only={"fem.solve_domain"})
    timer.install()
    ctx = workloads.Context(OUT_DIR, timer)
    tally = Tally()
    try:
        # traced runs make a single untraced pass, the overhead baseline
        walls, counts, made = run_passes(workload, inputs, ctx,
                                         0.0 if args.trace else deadline, tally,
                                         warmup_s=WARMUP_S,
                                         probe_every=0.0 if args.trace else PROBE_EVERY)
    finally:
        timer.uninstall()
    solves = timer.durations("fem.solve_domain")
    result = {
        "machine": machine_record(),
        "warmup_passes": made - len(walls),
        "walls": walls,
        "rows": counts,
        "solve_p50_s": statistics.median(solves) if solves else 0.0,
        "solve_samples": len(solves),
    }

    if args.trace:
        tracer = tracing.Tracer(memory=True)
        ctx = workloads.Context(OUT_DIR, tracer)
        tracer.install()
        tracemalloc.start()
        try:
            traced_walls, _, _ = run_passes(
                workload, inputs, ctx, deadline, tally, first_index=made)
        finally:
            tracemalloc.stop()
            tracer.uninstall()
        passes = len(traced_walls)
        layers = tracing.layer_metrics(tracer.spans, passes)
        layers["experiments.rows"] = ctx.cli_rows / passes
        layers["cli.bytes_written"] = ctx.bytes_written / passes
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers
        result["traced_passes"] = passes
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    result.update({
        "rows_attempted": tally.attempted,
        "rows_failed": tally.failed,
        "failed_rows": tally.failed_names,
        "tol_used_max": tally.used_max,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
