"""Acceptance suite: one pass/fail test per criterion, at the stated tolerances.

Criteria 1 and 7 pin the radius ε₂ where the normalized curve returns to the
disk value 2π. The k = 1 mode u = (a r + b/r) cos θ gives the characteristic
equation ε(1−ε)λ² − (1+ε²)λ + (1−ε) = 0 for λ₁; E = 2π means λ = 1/(1+ε),
which reduces it to ε(1 − 3ε − 2ε²) = 0, so ε₂ = (−3+√17)/4 ≈ 0.2808.
The closed form (−3+√13)/2 ≈ 0.3028 once stated for it solves ε² + 3ε − 1 = 0,
which drops the factor 2 on ε², and lies past the crossing.
"""

import math

import numpy as np
import pytest

from steklov_annulus import analytic, experiments, fem, shape_deriv
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle, PerturbationField
from steklov_annulus.mesher import radial_grading

TWO_PI = 2.0 * math.pi
EPS2 = (-3.0 + math.sqrt(17.0)) / 4.0  # root of 2ε² + 3ε − 1 = 0, see the docstring
NTHETA, NR = 512, 48


def concentric(eps):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=eps, orientation=INNER))


@pytest.fixture(scope="module")
def translation_rows():
    rows = []
    for table in range(1, 7):
        rows.extend(experiments.run_translation_table(table, NTHETA, NR))
    return rows


@pytest.fixture(scope="module")
def perturbed_rows():
    return experiments.run_perturbed_table(NTHETA, NR)


def test_criterion_1_closed_form_consistency():
    grid = np.linspace(0.01, 0.99, 1000)
    for eps in grid:
        direct = analytic.steklov_eig(eps, 1, "minus") * TWO_PI * (1.0 + eps)
        assert abs(analytic.normalized_first(eps) - direct) <= 1e-12 * direct
    assert abs(2.0 * EPS2 ** 2 + 3.0 * EPS2 - 1.0) <= 1e-14
    assert abs(analytic.normalized_first(EPS2) - TWO_PI) <= 1e-10


def test_criterion_2_critical_radius():
    cr = analytic.find_eps0()
    assert abs(cr.root - 0.146721) <= 5e-6
    assert abs(cr.root - cr.argmax) <= 1e-6
    assert abs(cr.slope_at_root) <= 1e-5 * analytic.normalized_first(cr.root)


@pytest.mark.parametrize("eps", [0.08, 0.146721, 0.3, 0.5])
def test_criterion_3_fem_vs_closed_form(eps):
    spec = fem.solve_domain(concentric(eps), NTHETA, NR, count=3, grading=radial_grading(eps))
    lam_exact = analytic.steklov_eig(eps, 1, "minus")
    assert abs(spec.eigenvalues[1] - lam_exact) <= 5e-3 * lam_exact
    gap = abs(spec.eigenvalues[2] - spec.eigenvalues[1])
    assert gap <= 1e-3 * spec.eigenvalues[1]


def test_criterion_4_table_reproduction(translation_rows, perturbed_rows):
    assert len(translation_rows) == 54  # 6 tables × 9 centers, 45 distinct values
    for row in translation_rows:
        assert row.deviation <= 0.03, row.descriptor
    anchor = [r for r in translation_rows
              if r.experiment == "table2" and r.descriptor == "center=(0,0)"]
    assert abs(anchor[0].computed - 6.8064) <= 0.02
    assert len(perturbed_rows) == 4
    for row in perturbed_rows:
        assert row.deviation <= 0.05, row.descriptor
        assert row.computed < 6.8064


@pytest.mark.parametrize("eps", [0.1, 0.146721, 0.3])
def test_criterion_5_consistency_triangle(eps):
    tri = shape_deriv.consistency_triangle(eps, n_theta=256, n_radial=24)
    if abs(eps - analytic.find_eps0().root) < 1e-4:
        assert abs(tri["analytic"]) <= 1e-3
        assert abs(tri["matrix"]) <= 1e-3
    else:
        assert tri["rel_analytic_matrix"] <= 0.02
        assert tri["rel_analytic_fd"] <= 0.02
        assert tri["rel_matrix_fd"] <= 0.02


def test_criterion_6_matrix_properties():
    rng = np.random.default_rng(42)
    for _ in range(50):
        field = PerturbationField(radial=0.0,
                                  cos_coeffs=tuple(rng.standard_normal(4)),
                                  sin_coeffs=tuple(rng.standard_normal(4)),
                                  target=INNER)
        _, m_nr = shape_deriv.split_radial(float(rng.uniform(0.05, 0.9)), field)
        assert abs(m_nr.trace()) <= 1e-12

    rng2 = np.random.default_rng(7)
    for _ in range(20):
        c = rng2.standard_normal(4)
        s = rng2.standard_normal(4)
        field = PerturbationField(radial=0.0, cos_coeffs=tuple(c),
                                  sin_coeffs=tuple(s), target=OUTER)
        m = shape_deriv.ball_matrix(2, 1.0, 0.0, field)
        assert abs(m.trace()) <= 1e-12
        c[1] = s[1] = 0.0  # remove the degree-2 harmonics
        m0 = shape_deriv.ball_matrix(2, 1.0, 0.0,
                                     PerturbationField(radial=0.0,
                                                       cos_coeffs=tuple(c),
                                                       sin_coeffs=tuple(s),
                                                       target=OUTER))
        assert np.max(np.abs(m0.entries)) <= 1e-12

    for eps in np.linspace(0.05, 0.9, 30):
        coeffs = shape_deriv.annulus_coeffs(float(eps))
        scale = max(abs(coeffs.c2), abs(coeffs.c3), 1.0)
        assert abs(coeffs.c1 - (coeffs.c3 - coeffs.c2)) <= 1e-12 * scale


def test_criterion_7_beats_disk_value_on_stated_interval():
    for eps in np.linspace(0.005, EPS2, 100, endpoint=False):
        assert analytic.normalized_first(float(eps)) > TWO_PI, f"eps={eps}"
    # past the crossing the disk wins, up to the right end 0.30 of the stated interval
    for eps in np.linspace(0.30, EPS2, 100, endpoint=False):
        assert analytic.normalized_first(float(eps)) < TWO_PI, f"eps={eps}"


def test_criterion_8_local_dominance_of_concentric_configuration(
        translation_rows, perturbed_rows):
    """Property-based stand-in for the (unproven) global claim: the
    concentric critical annulus dominates every tested translation and
    perturbation.  Table 7's rows are λ₁ times the stated constant
    2π(1+ε₀), not times the true perimeter, which the wiggled holes
    lengthen; the dominance here holds for that constant only."""
    best = analytic.normalized_first(analytic.find_eps0().root)
    for row in translation_rows + perturbed_rows:
        # the centered rows at the critical radius *are* the concentric
        # configuration; they must agree with it rather than lie below it
        if row.experiment in ("table2", "table5") and row.descriptor == "center=(0,0)":
            assert abs(row.computed - best) <= 0.02
        else:
            assert row.computed < best, row.descriptor
