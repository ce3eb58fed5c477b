"""The three benchmark workloads: seeded inputs, one pass, output checks.

Every workload runs in this single process with ``jobs=1``.  ``inputs(seed)``
builds everything a run needs up front; ``run_pass(inputs, index, ctx)``
makes one pass through the package's public API and returns one checked
``Row`` per result row.  The package only ever sees the generated inputs.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from steklov_annulus import analytic, cli, fem, shape_deriv
from steklov_annulus.geometry import (INNER, OUTER, TWO_PI, AnnularDomain, Circle,
                                      PerturbationField)

EPS0_PRINTED = 0.146721
POOL = 16   # pre-generated inputs per run; passes cycle through them


@dataclass(frozen=True)
class Row:
    """One checked result: ``used`` is deviation ÷ tolerance (None if it raised)."""

    name: str
    used: float | None
    ok: bool


def checked(name, deviation, tolerance, gate=True):
    used = deviation / tolerance
    return Row(name, used, bool(gate) and used <= 1.0)


class Context:
    """Per-run state the workloads share: output directory and byte count."""

    def __init__(self, out_dir: Path, tracer):
        self.out_dir = out_dir
        self.tracer = tracer
        self.bytes_written = 0
        self.cli_rows = 0
        self._calls = 0

    def run_cli(self, argv, expected_rows):
        """Run ``steklov-lab`` in-process; return its exit code, summary rows
        and the text of every file it wrote."""
        self._calls += 1
        out = self.out_dir / f"cli{self._calls}"
        shutil.rmtree(out, ignore_errors=True)
        self.tracer.row = " ".join(argv[-2:])
        with redirect_stdout(io.StringIO()):
            code = cli.main(["--out", str(out), *argv])
        files = {p.name: p.read_text() for p in out.iterdir()}
        shutil.rmtree(out)
        self.bytes_written += sum(len(text.encode()) for text in files.values())
        rows = list(csv.DictReader(io.StringIO(files["summary.csv"])))
        self.cli_rows += len(rows)
        if len(rows) != expected_rows:
            raise RuntimeError(f"{argv}: {len(rows)} summary rows, expected {expected_rows}")
        return code, rows, files


def guarded(name, expected_rows, body):
    """Run a check body; a raise fails all of its expected rows."""
    try:
        return body()
    except Exception:  # the benchmark keeps going and counts the failure
        traceback.print_exc(file=sys.stderr)
        return [Row(f"{name}#{i}", None, False) for i in range(expected_rows)]


def _summary_rows(code, rows):
    """Check each summary row against its embedded reference and tolerance."""
    out = []
    for r in rows:
        deviation = abs(float(r["computed"]) - float(r["reference"]))
        out.append(checked(f"{r['experiment']} {r['descriptor']}", deviation,
                           float(r["tolerance"]), gate=code == cli.EXIT_OK))
    return out


# -- reproduce-256 -----------------------------------------------------------

TRANSLATION_ROWS, PERTURBED_ROWS, FD_ROWS = 9, 4, 3
COMMON = ["--ntheta", "256", "--nr", "24", "--jobs", "1"]


def reproduce_inputs(seed):
    table = int(np.random.default_rng(seed).integers(1, 7))
    return [(COMMON + ["table", str(table)], TRANSLATION_ROWS),
            (COMMON + ["table", "7"], PERTURBED_ROWS),
            (COMMON + ["fd-check"], FD_ROWS)]


def reproduce_pass(commands, index, ctx):
    rows = []
    for argv, expected in commands:
        rows += guarded(" ".join(argv), expected,
                        lambda: _summary_rows(*ctx.run_cli(argv, expected)[:2]))
    return rows


# -- refine-512 --------------------------------------------------------------

LADDER = ((128, 12), (256, 24), (512, 48))
FINE_TOL = 5e-3        # relative, at the finest level; h² larger per coarser level
ORDER_TOL = 0.5        # observed order must lie in [1.5, 2.5]


def refine_inputs(seed):
    return [float(e) for e in np.random.default_rng(seed).uniform(0.08, 0.5, POOL)]


def refine_pass(eps_pool, index, ctx):
    eps = eps_pool[index % len(eps_pool)]
    return guarded(f"refine eps={eps}", len(LADDER), lambda: _refine_ladder(eps, ctx))


def _refine_ladder(eps, ctx):
    """Concentric annulus on the ladder; both copies of the double λ₁ are
    checked against the closed form, the finest level also on its order."""
    domain = AnnularDomain(outer=Circle(orientation=OUTER, radius=1.0),
                           inner=Circle(orientation=INNER, radius=eps))
    exact = analytic.steklov_eig(eps, 1, "minus")
    finest = LADDER[-1][0]
    errors, rows = [], []
    for n_theta, n_radial in LADDER:
        ctx.tracer.row = f"refine eps={eps:.6f} {n_theta}x{n_radial}"
        spec = fem.solve_domain(domain, n_theta, n_radial, count=3)
        err = float(np.max(np.abs(spec.eigenvalues[1:3] - exact))) / exact
        errors.append(err)
        rows.append((ctx.tracer.row, err, FINE_TOL * (finest / n_theta) ** 2))
    # the order gates the finest row; its margin depends on ε, not on the solver
    order = math.log2(errors[-2] / errors[-1])
    order_ok = abs(order - 2.0) <= ORDER_TOL
    return [checked(name, err, tol, gate=(i < len(rows) - 1 or order_ok))
            for i, (name, err, tol) in enumerate(rows)]


# -- closed-form -------------------------------------------------------------

BATCH = 40             # seeded items per pass; each makes ITEM_ROWS checks
ITEM_ROWS = 7
ROUNDOFF = 1e-10       # relative tolerance of the exact identities
FIG1_POINTS, FIG1_LO, FIG1_HI = 500, 0.01, 0.95


def closed_form_inputs(seed):
    rng = np.random.default_rng(seed)
    return [[_closed_form_item(rng) for _ in range(BATCH)] for _ in range(POOL)]


def _closed_form_item(rng):
    return {"eps": float(rng.uniform(0.05, 0.9)), "mode": int(rng.integers(1, 5)),
            "branch": ("minus", "plus")[int(rng.integers(2))],
            "radial": float(rng.standard_normal()),
            "cos": tuple(rng.standard_normal(4).tolist()),
            "sin": tuple(rng.standard_normal(4).tolist()),
            "radius": float(rng.uniform(0.5, 2.0)), "beta": float(rng.uniform(-0.5, 0.5))}


def closed_form_pass(batches, index, ctx):
    rows = guarded("fig1", 1, lambda: _fig1_rows(ctx))
    rows += guarded("eps0", 3, lambda: _eps0_rows(ctx))
    for i, item in enumerate(batches[index % len(batches)]):
        ctx.tracer.row = f"item{i}"
        rows += guarded(f"item{i}", ITEM_ROWS, lambda: _item_rows(item))
    return rows


def _fig1_rows(ctx):
    code, _, files = ctx.run_cli(["fig1"], 1)
    curve = np.loadtxt(io.StringIO(files["fig1.csv"]), delimiter=",", skiprows=1)
    step = (FIG1_HI - FIG1_LO) / (FIG1_POINTS - 1)
    argmax = curve[np.argmax(curve[:, 1]), 0]
    deviation = abs(argmax - analytic.find_eps0().root)
    return [checked("fig1 curve argmax vs eps0", deviation, step,
                    gate=code == cli.EXIT_OK and len(curve) == FIG1_POINTS)]


def _eps0_rows(ctx):
    code, _, files = ctx.run_cli(["eps0"], 1)
    report = {r["quantity"]: float(r["value"])
              for r in csv.DictReader(io.StringIO(files["eps0.csv"]))}
    ok = code == cli.EXIT_OK
    root = report["root"]
    return [
        checked("eps0 root vs argmax", abs(root - report["argmax"]), 1e-6, ok),
        checked("eps0 root vs printed", abs(root - EPS0_PRINTED), 5e-6, ok),
        checked("eps0 slope", abs(report["slope_at_root"]),
                1e-5 * analytic.normalized_first(root), ok),
    ]


def _rel(a, b):
    scale = max(float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def _trace_share(matrix):
    return abs(matrix.trace()) / max(float(np.max(np.abs(matrix.entries))), 1.0)


def _item_rows(item):
    eps = item["eps"]
    lam = analytic.steklov_eig(eps, item["mode"], item["branch"])
    pair = analytic.solve_coeffs(eps, item["mode"], 0.0, item["branch"])

    inner = PerturbationField(radial=item["radial"], cos_coeffs=item["cos"],
                              sin_coeffs=item["sin"], target=INNER)
    outer = PerturbationField(radial=0.0, cos_coeffs=item["cos"],
                              sin_coeffs=item["sin"], target=OUTER)
    m_r, m_nr = shape_deriv.split_radial(eps, inner)
    m_in, _ = shape_deriv.annulus_matrices(eps, inner, outer)
    coeffs = shape_deriv.annulus_coeffs(eps)
    ball = shape_deriv.ball_matrix(2, item["radius"], item["beta"], outer)

    radial = PerturbationField(radial=item["radial"], target=INNER)
    k_v = shape_deriv.perimeter_derivative(Circle(radius=eps, orientation=INNER), radial)
    perimeter = TWO_PI * (1.0 + eps)
    norm = shape_deriv.normalized_derivative(m_in, perimeter, k_v, coeffs.lam)
    expected = perimeter * np.linalg.eigvalsh(m_in.entries) + k_v * coeffs.lam

    tag = f"eps={eps:.6f}"
    return [
        checked(f"steklov_eig vs solve_coeffs {tag} n={item['mode']}",
                abs(lam - pair.lam) / lam, ROUNDOFF),
        checked(f"split_radial trace-free {tag}", _trace_share(m_nr), ROUNDOFF),
        checked(f"split_radial sums to inner matrix {tag}",
                _rel(m_r.entries + m_nr.entries, m_in.entries), ROUNDOFF),
        checked(f"c1 = c3 - c2 {tag}",
                abs(coeffs.c1 - (coeffs.c3 - coeffs.c2))
                / max(abs(coeffs.c2), abs(coeffs.c3), 1.0), ROUNDOFF),
        checked(f"ball_matrix trace-free R={item['radius']:.4f}", _trace_share(ball), ROUNDOFF),
        checked(f"perimeter_derivative = -2πk {tag}",
                _rel(k_v, -TWO_PI * item["radial"]), ROUNDOFF),
        checked(f"normalized_derivative shift {tag}", _rel(norm.derivatives, expected), ROUNDOFF),
    ]


@dataclass(frozen=True)
class Workload:
    inputs: object      # seed -> inputs built before the set-up point
    run_pass: object    # (inputs, pass index, Context) -> list[Row]


# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    "reproduce-256": Workload(reproduce_inputs, reproduce_pass),
    "refine-512": Workload(refine_inputs, refine_pass),
    "closed-form": Workload(closed_form_inputs, closed_form_pass),
}
