import math

import numpy as np
import pytest

from steklov_annulus import analytic
from steklov_annulus.analytic import (AnalyticError, CoeffPair, critical_poly, find_eps0,
                                      normalized_first, solve_coeffs, steklov_eig)

TWO_PI = 2.0 * math.pi
EPS2_PRINTED = (-3.0 + math.sqrt(13.0)) / 2.0   # where E(ε)=2π is claimed to hold
EPS2_ACTUAL = (-3.0 + math.sqrt(17.0)) / 4.0    # where E(ε)=2π actually holds


def coeff_system_residual(eps, k, beta, lam, a_k, a_mk):
    """Residuals of the two linear equations the harmonic coefficients satisfy.

    Row 1 collects the boundary condition on the outer circle, row 2 on the
    inner circle (with its powers of ε exactly as used throughout).
    """
    r1 = a_k * (beta * k * k + k - lam) + a_mk * (beta * k * k - k - lam)
    r2 = (a_k * (beta * k * k * eps ** (k - 2) - k * eps ** (k - 1) - lam * eps ** k)
          + a_mk * (beta * k * k * eps ** (-k - 2) + k * eps ** (-k - 1) - lam * eps ** (-k)))
    return r1, r2


class TestSpectrum:
    @pytest.mark.parametrize("eps", [0.05, 0.146721, 0.3, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_branches_satisfy_coefficient_system(self, eps, n):
        """Each branch's coefficients are a null vector of the 2×2 system,
        for the Steklov condition (β = 0), where λ is the closed form, and
        for the Wentzell condition β ∈ {0.1, 0.5}, where the tangential
        term only adds to the Rayleigh quotient, so λ exceeds its β = 0
        value."""
        for branch in ("minus", "plus"):
            steklov = steklov_eig(eps, n, branch)
            for beta in (0.0, 0.1, 0.5):
                pair = solve_coeffs(eps, n, beta, branch)
                lam = pair.lam
                if beta == 0.0:
                    assert lam == pytest.approx(steklov, rel=1e-10)
                    lam = steklov
                else:
                    assert lam > steklov
                r1, r2 = coeff_system_residual(eps, n, beta, lam, pair.a_k, pair.a_mk)
                scale = max(abs(pair.a_k), abs(pair.a_mk)) * (1 + lam)
                assert abs(r1) < 1e-10 * scale
                assert abs(r2) < 1e-10 * scale / eps ** (n + 1)

    def test_minus_below_plus(self):
        assert steklov_eig(0.3, 1, "minus") < steklov_eig(0.3, 1, "plus")

    def test_mode_one_product_of_roots(self):
        # characteristic quadratic has constant term 1/ε: λ₋·λ₊ = 1/ε
        eps = 0.2
        prod = steklov_eig(eps, 1, "minus") * steklov_eig(eps, 1, "plus")
        assert prod == pytest.approx(1.0 / eps, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(AnalyticError):
            steklov_eig(1.5, 1, "minus")
        with pytest.raises(AnalyticError):
            steklov_eig(0.3, 0, "minus")
        with pytest.raises(AnalyticError):
            steklov_eig(0.3, 1, "down")


class TestCoefficients:
    def test_unit_boundary_norm(self):
        pair = solve_coeffs(0.25, 1, 0.0, "minus")
        assert pair.boundary_norm_sq() == pytest.approx(1.0, rel=1e-12)

    def test_norm_formula_against_quadrature(self):
        pair = CoeffPair(a_k=0.7, a_mk=-0.2, k=2, eps=0.3, beta=0.0, lam=0.0)
        theta = np.linspace(0, TWO_PI, 20001)

        def trace_sq(r):
            g = (0.7 * r ** 2 - 0.2 * r ** -2) * np.cos(2 * theta)
            return np.trapezoid(g * g, theta)

        ref = trace_sq(1.0) + 0.3 * trace_sq(0.3)
        assert pair.boundary_norm_sq() == pytest.approx(ref, rel=1e-6)

    def test_wentzell_beta_shifts_eigenvalue(self):
        lam0 = solve_coeffs(0.3, 1, 0.0, "minus").lam
        lam1 = solve_coeffs(0.3, 1, 0.5, "minus").lam
        assert lam1 > lam0

    @pytest.mark.parametrize("eps, k, branch", [
        (0.3, 1, "down"),      # unknown branch, once taken as "plus"
        (0.3, -1, "minus"),    # mode below 1, once solved as λ = 0.7508
        (0.05, 150, "minus"),  # discriminant overflows, once λ = NaN
        (0.5, 600, "minus"),   # likewise; steklov_eig gives 600
        (0.1, 400, "minus"),   # ε^(−k−2) overflows, once a bare OverflowError
    ])
    def test_invalid_or_unrepresentable_mode_raises(self, eps, k, branch):
        with pytest.raises(AnalyticError):
            solve_coeffs(eps, k, 0.0, branch)


class TestNormalizedCurve:
    def test_matches_spectrum_times_perimeter(self):
        eps_grid = np.linspace(0.01, 0.99, 1000)
        for eps in eps_grid:
            direct = steklov_eig(eps, 1, "minus") * TWO_PI * (1.0 + eps)
            assert abs(normalized_first(eps) - direct) < 1e-12 * direct

    def test_disk_limit(self):
        # ε → 0: first eigenvalue → 1, perimeter → 2π
        assert normalized_first(1e-9) == pytest.approx(TWO_PI, rel=1e-6)

    def test_crossing_of_disk_value(self):
        """E = 2π exactly at (−3+√17)/4; the nearby closed form (−3+√13)/2
        printed elsewhere does not satisfy the equation."""
        assert normalized_first(EPS2_ACTUAL) == pytest.approx(TWO_PI, abs=1e-10)
        assert abs(normalized_first(EPS2_PRINTED) - TWO_PI) > 1e-2


class TestCriticalPolynomial:
    def test_palindromic_root_pairing(self):
        # coefficients are palindromic, so roots come in reciprocal pairs
        root = find_eps0().root
        assert critical_poly(1.0 / root) == pytest.approx(0.0, abs=1e-6 / root ** 6)

    def test_two_sign_changes_in_unit_interval(self):
        grid = np.linspace(1e-4, 1 - 1e-4, 20000)
        vals = critical_poly(grid)
        changes = np.count_nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert changes == 2

    def test_second_root_is_not_the_maximizer(self):
        grid = np.linspace(0.2, 0.5, 20000)
        vals = critical_poly(grid)
        i = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][0]
        second = 0.5 * (grid[i] + grid[i + 1])
        assert abs(second - 0.327879) < 1e-3
        assert normalized_first(second) < normalized_first(find_eps0().root)


class TestCriticalRadius:
    def test_reference_value(self):
        assert find_eps0().root == pytest.approx(0.146721, abs=5e-6)

    def test_root_equals_argmax(self):
        cr = find_eps0()
        assert abs(cr.root - cr.argmax) < 1e-6

    def test_stationary_slope(self):
        cr = find_eps0()
        assert abs(cr.slope_at_root) < 1e-5 * normalized_first(cr.root)

    def test_maximum_value(self):
        assert normalized_first(find_eps0().root) == pytest.approx(6.8064, abs=1e-4)
