"""Benchmark of the steklov_annulus laboratory.

    python3 perfbench/run.py --workload reproduce-256 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Starts ``perfbench/worker.py`` as a child
process (package from ``src/``, one BLAS thread), and more times for set-up
alone: before it, between its passes and after it.  Prints every metric with
its unit, the machine record, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 1 when a
checked output is wrong, 2 when the checkout has no ``src/steklov_annulus``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3       # set-up-only children before and again after the measuring one
BLAS_THREADS = "1"     # a second thread on a shared 2-CPU host is slower and noisier
TIME_LIMIT = 170.0     # seconds for the whole run, children included


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="steklov_annulus benchmark")
    parser.add_argument("--workload", required=True,
                        help="reproduce-256, refine-512 or closed-form")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is the documented cross-check)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the passes are measured (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def read_line(proc, deadline):
    if not select.select([proc.stdout], [], [], max(deadline - perf_counter(), 1.0))[0]:
        raise TimeoutError("worker did not answer in time")
    return proc.stdout.readline()


def start_worker(args, deadline, setup_only):
    """Start a worker; return it with the seconds until it reported ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = read_line(proc, deadline)
        ready = perf_counter() - t0
        if json.loads(line or "{}").get("ready") is not True:
            raise RuntimeError(f"worker did not start: {line!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready


def finish(proc, deadline, on_probe=None):
    """Serve a worker's probe requests until it exits; return its last line.
    The worker is killed at the deadline or on any error."""
    try:
        last = ""
        while line := read_line(proc, deadline):
            if json.loads(line).get("probe") is True:
                on_probe()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
        proc.stdin.close()
        proc.wait(timeout=max(deadline - perf_counter(), 1.0))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return last


def measure(args):
    """Run the measuring child with set-up probes before it, between its
    passes and after it, so the set-up median sees the host over the whole
    run rather than over its first seconds."""
    deadline = perf_counter() + TIME_LIMIT
    setups = []

    def probe():
        proc, ready = start_worker(args, deadline, setup_only=True)
        finish(proc, deadline)
        setups.append(ready)

    probes = 0 if args.trace else SETUP_PROBES   # setup_s is not a per-layer metric
    for _ in range(probes):
        probe()
    proc, ready = start_worker(args, deadline, setup_only=False)
    setups.append(ready)
    raw = json.loads(finish(proc, deadline, on_probe=probe))
    for _ in range(probes):
        probe()
    raw["setup_samples"] = setups
    return raw


def metrics_of(raw, trace):
    """The metrics BENCHMARK.json declares, in its order and with its units."""
    declared = json.loads(Path("BENCHMARK.json").read_text())
    if trace:
        values = dict(raw["layers"], solve_p50_s=raw["solve_p50_s"],
                      solve_samples=raw["solve_samples"],
                      fail_frac=raw["rows_failed"] / raw["rows_attempted"])
        names = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(raw["setup_samples"]),
            # means, not medians: the host switches between speed phases
            # lasting seconds, and a median over passes snaps to one of them
            "wall_s": statistics.fmean(raw["walls"]),
            "rows_per_s": sum(raw["rows"]) / sum(raw["walls"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "tol_used_max": raw["tol_used_max"],
        }
        names = declared["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def report(args, raw, metrics):
    """Human-readable lines; the JSON result line follows them."""
    walls = raw["walls"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls) + raw.get('traced_passes', 0)}  "
          f"warm-up passes {raw['warmup_passes']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        # reported here only: zero on a correct run, absent without FEM solves
        print(f"  {'fail_frac':34s} {raw['rows_failed'] / raw['rows_attempted']:14.6g} ratio")
        print(f"  {'solve_p50_s':34s} {raw['solve_p50_s']:14.6g} s "
              f"(n={raw['solve_samples']})")
        print(f"  pass wall median {statistics.median(walls):.6g} s, max {max(walls):.6g} s "
              f"(n={len(walls)})")
    print(f"  setup samples {['%.3f' % s for s in raw['setup_samples']]}")
    print("machine " + json.dumps(raw["machine"]))
    for name in raw["failed_rows"]:
        print(f"  FAILED {name}")


def main(argv=None):
    args = parse_args(argv)
    if not Path("src", "steklov_annulus", "__init__.py").is_file():
        print("no src/steklov_annulus here: run from the root of a checkout",
              file=sys.stderr)
        return 2
    raw = measure(args)
    metrics = metrics_of(raw, args.trace)
    report(args, raw, metrics)
    correct = raw["rows_failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["rows_attempted"],
                      "failed": raw["rows_failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
