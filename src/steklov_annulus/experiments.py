"""Experiment runners: the E(ε) curve, the translation and perturbation
tables, the shape-derivative cross-checks and the critical-radius report.

Reference values from an independent solver are embedded as golden data;
per-table absolute tolerances absorb inter-solver discretization
differences (0.02-0.03 for circular holes, 0.05 for perturbed ones).

A translation table solves 5 of its 9 rows: the Steklov spectrum is
invariant under isometries, and the hole at offset +d is the mirror image
of the hole at −d, so the rows at d > 0 repeat the solved rows at −d
(`_mirror`, which also builds the references).  Each solved hole is
turned onto the negative x-axis, where its mesh is mirror-symmetric and
solves as two half problems (`_solve_translation_row`).  `jobs` spreads
those 5 solves over worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic, shape_deriv
from .geometry import (INNER, OUTER, TWO_PI, AnnularDomain, Circle,
                       CosinePerturbedCircle, amplitude_for_perimeter)
from .fem import solve_domain
from .mesher import radial_grading

EPS0 = 0.146721  # critical inner radius, 6 digits

# Golden values: first normalized eigenvalue 2π(1+ε)λ₁ for an inner circle
# translated along the x-axis (by d) or along y=-x (center (-d, d)), at
# d = -0.4 … 0; `_mirror` supplies d = 0.1 … 0.4.
_X_AXIS_VALUES = {
    0.3:      [5.5724, 5.8231, 5.9960, 6.0987, 6.1328],
    EPS0:     [6.4759, 6.6169, 6.7208, 6.7848, 6.8064],
    0.08:     [6.5001, 6.5794, 6.6374, 6.6729, 6.6849],
}
_DIAGONAL_VALUES = {
    0.3:      [4.8916, 5.4976, 5.8580, 6.0645, 6.1328],
    EPS0:     [6.1623, 6.4363, 6.6375, 6.7633, 6.8064],
    0.08:     [6.3244, 6.4777, 6.5909, 6.6610, 6.6849],
}
_OFFSETS = [-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4]

# (table number, ε, direction)
TRANSLATION_TABLES = {
    1: (0.3, "x-axis"),
    2: (EPS0, "x-axis"),
    3: (0.08, "x-axis"),
    4: (0.3, "diagonal"),
    5: (EPS0, "diagonal"),
    6: (0.08, "diagonal"),
}

# Cosine-perturbed inner boundaries r = a·cos(kθ) + ε₀ whose surrogate
# ∫(r² + r′²)dθ is 2πε₀ (`amplitude_for_perimeter`): frequency k -> golden
# 2π(1+ε₀)λ₁.  The factor is the stated constant, not the true perimeter,
# which the wiggled holes lengthen (descriptor `inner_arclen`).
PERTURBED_TABLE = {
    5: 6.0338,
    10: 6.3146,
    20: 6.4700,
    50: 6.5698,
}

DEFAULT_NTHETA = 512
DEFAULT_NR = 48
CIRCLE_TOLERANCE = 0.03
ANCHOR_TOLERANCE = 0.02
PERTURBED_TOLERANCE = 0.05


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    descriptor: str
    computed: float
    reference: float | None
    tolerance: float | None

    @property
    def deviation(self):
        return None if self.reference is None else abs(self.computed - self.reference)

    @property
    def passed(self):
        if self.reference is None or self.tolerance is None:
            return True
        return self.deviation <= self.tolerance


def translation_centers(table):
    eps, direction = TRANSLATION_TABLES[table]
    if direction == "x-axis":
        centers = [(d, 0.0) for d in _OFFSETS]
    else:
        centers = [(-d, d) if d != 0.0 else (0.0, 0.0) for d in _OFFSETS]
    return eps, centers


def _mirror(half):
    """All nine rows of a translation table from the five with d ≤ 0: the
    row at +d is the mirror image of the row at −d, so the rows are
    symmetric about the centred one."""
    return half + half[-2::-1]


def translation_references(table):
    eps, direction = TRANSLATION_TABLES[table]
    return _mirror((_X_AXIS_VALUES if direction == "x-axis" else _DIAGONAL_VALUES)[eps])


def _solve_translation_row(args):
    """2π(1 + ε)·λ₁ of the hole of radius ε at `center`, solved as its
    isometric copy on the negative x-axis, (−|center|, 0).  A rotation
    leaves the spectrum unchanged, and the copy's mesh is mirror-symmetric
    under y ↦ −y, so `fem.solve_spectrum` solves it as two half problems;
    a diagonal table's hole at (−d, d) mirrors across y = −x instead, and
    would be solved in one block.  When 8 | N_θ the eighth turn between
    the two maps the θ grid onto itself and the two meshes coincide up to
    round-off; otherwise they differ by discretization error alone."""
    eps, center, n_theta, n_radial = args
    domain = AnnularDomain(outer=Circle(orientation=OUTER, radius=1.0),
                           inner=Circle(center=(-math.hypot(*center), 0.0),
                                        orientation=INNER, radius=eps))
    spec = solve_domain(domain, n_theta, n_radial, count=2, grading=radial_grading(eps))
    return float(spec.eigenvalues[1]) * TWO_PI * (1.0 + eps)


def _solve_perturbed_row(args):
    freq, amplitude, n_theta, n_radial = args
    inner = CosinePerturbedCircle(a=amplitude, k=freq, b=EPS0, orientation=INNER)
    domain = AnnularDomain(outer=Circle(orientation=OUTER, radius=1.0), inner=inner)
    spec = solve_domain(domain, n_theta, n_radial, count=2, grading=radial_grading(EPS0))
    # the stated normalization constant, not the true perimeter
    value = float(spec.eigenvalues[1]) * TWO_PI * (1.0 + EPS0)
    return value, inner.arc_length()


def _fd_check_row(args):
    eps, n_theta, n_radial = args
    return shape_deriv.consistency_triangle(eps, n_theta=n_theta, n_radial=n_radial)


def _map_rows(worker, arglist, jobs):
    # the pool starts all its workers at once: never more than there are rows
    workers = min(jobs, len(arglist))
    if workers <= 1:
        return [worker(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, arglist))


def run_translation_table(table, n_theta=DEFAULT_NTHETA, n_radial=DEFAULT_NR,
                          tolerance=None, jobs=1):
    """ResultRows for one of the six circle-translation tables.

    Only the five centres with d ≤ 0 are solved; each row at d > 0 takes the
    value of its mirror image at −d, as the references do.
    """
    eps, centers = translation_centers(table)
    refs = translation_references(table)
    arglist = [(eps, c, n_theta, n_radial) for c in centers[:_OFFSETS.index(0.0) + 1]]
    values = _mirror(_map_rows(_solve_translation_row, arglist, jobs))
    rows = []
    for center, value, ref in zip(centers, values, refs):
        tol = tolerance
        if tol is None:
            tol = ANCHOR_TOLERANCE if center == (0.0, 0.0) and table == 2 else CIRCLE_TOLERANCE
        rows.append(ResultRow(experiment=f"table{table}",
                              descriptor=f"center=({center[0]:g},{center[1]:g})",
                              computed=value, reference=ref, tolerance=tol))
    return rows


def run_perturbed_table(n_theta=DEFAULT_NTHETA, n_radial=DEFAULT_NR,
                        tolerance=None, jobs=1):
    """ResultRows for the cosine-perturbed inner boundaries (plus the true
    inner perimeter of each domain as an extra descriptor field).

    tolerance=None means PERTURBED_TOLERANCE.
    """
    if tolerance is None:
        tolerance = PERTURBED_TOLERANCE
    arglist = []
    for freq in sorted(PERTURBED_TABLE):
        amplitude = amplitude_for_perimeter(freq, EPS0, EPS0)
        arglist.append((freq, amplitude, n_theta, n_radial))
    results = _map_rows(_solve_perturbed_row, arglist, jobs)
    rows = []
    for (freq, amplitude, _, _), (value, true_len) in zip(arglist, results):
        rows.append(ResultRow(
            experiment="table7",
            descriptor=f"k={freq} a={amplitude:.4f} inner_arclen={true_len:.6f}",
            computed=value, reference=PERTURBED_TABLE[freq], tolerance=tolerance))
    return rows


def run_fig1():
    """Sweep of the normalized-eigenvalue curve at 500 radii in [0.01, 0.95]
    with its marked maximum."""
    curve = analytic.sample_E(np.linspace(0.01, 0.95, 500))
    critical = analytic.find_eps0()
    return {"curve": curve, "eps0": critical.root,
            "E_at_eps0": analytic.normalized_first(critical.root)}


def run_fd_check(n_theta=256, n_radial=24, tolerance=None, jobs=1):
    """Consistency-triangle rows: three derivative routes at ε = 0.1, ε₀
    and 0.3.

    tolerance bounds the relative pairwise mismatch (None means 0.02).  At
    the critical radius all routes are near zero, so an absolute bound on
    each route replaces the relative pairwise comparison there.
    """
    if tolerance is None:
        tolerance = 0.02
    eps0 = analytic.find_eps0().root
    eps_values = (0.1, EPS0, 0.3)
    triangles = _map_rows(_fd_check_row, [(eps, n_theta, n_radial) for eps in eps_values], jobs)
    rows = []
    for eps, tri in zip(eps_values, triangles):
        at_critical = abs(eps - eps0) < 1e-4
        if at_critical:
            worst = max(abs(tri["analytic"]), abs(tri["matrix"]))
            tol = 1e-3
        else:
            worst = max(tri["rel_analytic_matrix"], tri["rel_analytic_fd"],
                        tri["rel_matrix_fd"])
            tol = tolerance
        rows.append(ResultRow(
            experiment="fd-check",
            descriptor=(f"eps={eps:g} radial analytic={tri['analytic']:.6f} "
                        f"matrix={tri['matrix']:.6f} fd={tri['fd']:.6f}"),
            computed=worst, reference=0.0, tolerance=tol))
    return rows


def run_eps0():
    """Critical-radius report: sextic root, E-argmax, slope and residual."""
    critical = analytic.find_eps0()
    return {
        "root": critical.root,
        "argmax": critical.argmax,
        "slope_at_root": critical.slope_at_root,
        "poly_at_root": analytic.critical_poly(critical.root),
        "poly_at_6digit": analytic.critical_poly(EPS0),
        "E_at_root": analytic.normalized_first(critical.root),
    }


def rows_to_csv(rows):
    lines = ["experiment,descriptor,computed,reference,deviation,tolerance,status"]
    for r in rows:
        ref = "" if r.reference is None else f"{r.reference:.6f}"
        dev = "" if r.deviation is None else f"{r.deviation:.6f}"
        tol = "" if r.tolerance is None else f"{r.tolerance:g}"
        status = "pass" if r.passed else "fail"
        lines.append(f'{r.experiment},"{r.descriptor}",{r.computed:.6f},{ref},{dev},{tol},{status}')
    return "\n".join(lines) + "\n"


def curve_to_csv(curve):
    lines = ["eps,E"]
    lines += [f"{e:.10f},{val:.10f}" for e, val in curve]
    return "\n".join(lines) + "\n"


def polyline_svg(points, marker):
    """Minimal SVG plot of the E(ε) curve: one polyline, axis ticks and a
    marker at the point ``marker`` = (ε₀, E(ε₀))."""
    width, height, margin = 640, 440, 50
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    pad_y = 0.05 * (y1 - y0 or 1.0)
    y0, y1 = y0 - pad_y, y1 + pad_y

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
    ]
    for tick in np.linspace(x0, x1, 5):
        parts.append(f'<line x1="{sx(tick):.2f}" y1="{height - margin}" x2="{sx(tick):.2f}" '
                     f'y2="{height - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(tick):.2f}" y="{height - margin + 18}" font-size="11" '
                     f'text-anchor="middle">{tick:.2f}</text>')
    for tick in np.linspace(y0, y1, 5):
        parts.append(f'<line x1="{margin - 5}" y1="{sy(tick):.2f}" x2="{margin}" '
                     f'y2="{sy(tick):.2f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{sy(tick) + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{tick:.2f}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 12}" font-size="12" '
                 f'text-anchor="middle">inner radius</text>')
    parts.append(f'<text x="14" y="{height / 2}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {height / 2})">'
                 'perimeter-normalized first eigenvalue</text>')
    mx, my = marker
    parts.append(f'<circle cx="{sx(mx):.2f}" cy="{sy(my):.2f}" r="4" fill="crimson"/>')
    parts.append(f'<text x="{sx(mx) + 8:.2f}" y="{sy(my) - 8:.2f}" font-size="11">'
                 f'max at {mx:.6f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
