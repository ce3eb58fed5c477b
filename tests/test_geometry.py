import math

import numpy as np
import pytest

from steklov_annulus.geometry import (INNER, OUTER, TWO_PI, AnnularDomain,
                                      BoundaryCurve, Circle, CosinePerturbedCircle,
                                      GeometryError, PerturbationField,
                                      amplitude_for_perimeter)


def cosine_length_surrogate(a, b, k):
    """Closed form of ∫₀^{2π} (r² + r'²) dθ for r = a·cos(kθ) + b, the
    quantity `amplitude_for_perimeter` solves against."""
    return a * a * math.pi + 2.0 * math.pi * b * b + a * a * k * k * math.pi


class TestCircle:
    def test_points_lie_on_circle(self):
        c = Circle(center=(0.5, -0.25), radius=2.0)
        theta = np.linspace(0, TWO_PI, 17)
        pts = c.point_at(theta)
        radii = np.linalg.norm(pts - [0.5, -0.25], axis=1)
        np.testing.assert_allclose(radii, 2.0, rtol=1e-14)

    def test_curvature_signs(self):
        assert Circle(radius=2.0, orientation=OUTER).curvature_at(1.0) == pytest.approx(0.5)
        assert Circle(radius=0.25, orientation=INNER).curvature_at(1.0) == pytest.approx(-4.0)

    def test_arc_length_exact(self):
        assert Circle(radius=0.7).arc_length() == pytest.approx(TWO_PI * 0.7, rel=1e-14)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(GeometryError):
            Circle(radius=0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, radius):
        with pytest.raises(GeometryError):
            Circle(radius=radius)

    def test_nonfinite_center_rejected(self):
        with pytest.raises(GeometryError):
            Circle(radius=0.3, center=(math.nan, 0.0), orientation=INNER)


class TestCosinePerturbedCircle:
    def test_radius_samples(self):
        c = CosinePerturbedCircle(a=0.1, k=3, b=0.5)
        assert np.linalg.norm(c.point_at(0.0)) == pytest.approx(0.6)
        assert np.linalg.norm(c.point_at(np.pi / 3)) == pytest.approx(0.4)

    def test_arc_length_against_trapezoid(self):
        c = CosinePerturbedCircle(a=0.08, k=5, b=0.4)
        theta = np.linspace(0, TWO_PI, 200001)
        r = 0.08 * np.cos(5 * theta) + 0.4
        dr = -0.4 * np.sin(5 * theta)
        ref = np.trapezoid(np.sqrt(r * r + dr * dr), theta)
        assert c.arc_length() == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("k", [32, 64])
    def test_arc_length_of_dyadic_frequency(self, k):
        """A frequency that 16 and 32 equispaced points cannot resolve: on
        such grids aligned with θ = 0 every sample is r = a + b, r' = 0."""
        c = CosinePerturbedCircle(a=0.05, k=k, b=0.5)
        theta = TWO_PI * np.arange(256 * k) / (256 * k)
        r = 0.05 * np.cos(k * theta) + 0.5
        dr = -0.05 * k * np.sin(k * theta)
        ref = TWO_PI * np.mean(np.sqrt(r * r + dr * dr))
        assert c.arc_length() == pytest.approx(ref, rel=1e-12)

    def test_curvature_matches_finite_difference_of_tangent_angle(self):
        c = CosinePerturbedCircle(a=0.05, k=4, b=0.6, orientation=OUTER)
        theta0, h = 0.37, 1e-6
        t = [c.tangent_at(theta0 + s) for s in (-h, h)]
        ang = [math.atan2(v[1], v[0]) for v in t]
        speed = np.linalg.norm(c.tangent_at(theta0))
        kappa_fd = (ang[1] - ang[0]) / (2 * h) / speed
        assert c.curvature_at(theta0) == pytest.approx(kappa_fd, rel=1e-6)

    def test_negative_graph_rejected(self):
        with pytest.raises(GeometryError):
            CosinePerturbedCircle(a=0.5, k=2, b=0.4)

    @pytest.mark.parametrize("params", [{"a": math.nan}, {"b": math.nan}, {"k": math.nan}],
                             ids=["a", "b", "k"])
    def test_nonfinite_parameters_rejected(self, params):
        with pytest.raises(GeometryError):
            CosinePerturbedCircle(**{"a": 0.05, "k": 3, "b": 0.4, **params})


class TestPerimeterSurrogate:
    def test_surrogate_closed_form_vs_quadrature(self):
        a, b, k = 0.07, 0.3, 6
        theta = np.linspace(0, TWO_PI, 100001)
        r = a * np.cos(k * theta) + b
        dr = -a * k * np.sin(k * theta)
        ref = np.trapezoid(r * r + dr * dr, theta)
        assert cosine_length_surrogate(a, b, k) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("k", [5, 10, 20, 50])
    def test_amplitude_solves_surrogate_equation(self, k):
        eps = 0.146721
        a = amplitude_for_perimeter(k, eps, eps)
        assert cosine_length_surrogate(a, eps, k) == pytest.approx(TWO_PI * eps, rel=1e-12)

    def test_amplitude_rejects_impossible_target(self):
        with pytest.raises(GeometryError):
            amplitude_for_perimeter(5, 0.01, 0.5)


class TestAnnularDomain:
    def test_gap_for_concentric_circles(self):
        d = AnnularDomain(outer=Circle(radius=1.0), inner=Circle(radius=0.3, orientation=INNER))
        assert d.gap() == pytest.approx(0.7, abs=1e-12)

    def test_perimeter(self):
        d = AnnularDomain(outer=Circle(radius=1.0), inner=Circle(radius=0.3, orientation=INNER))
        assert d.perimeter() == pytest.approx(TWO_PI * 1.3, rel=1e-13)

    def test_inner_escaping_outer_rejected(self):
        with pytest.raises(GeometryError):
            AnnularDomain(outer=Circle(radius=1.0),
                          inner=Circle(center=(0.9, 0.0), radius=0.3, orientation=INNER))

    def test_nan_gap_rejected(self):
        """A NaN gap is no clearance: `gap() <= 0` alone lets it through."""
        class NanCurve(BoundaryCurve):
            def _r(self, theta):
                return np.full_like(theta, math.nan)

        with pytest.raises(GeometryError):
            AnnularDomain(outer=Circle(radius=1.0), inner=NanCurve(orientation=INNER))

    def test_orientation_enforced(self):
        with pytest.raises(GeometryError):
            AnnularDomain(outer=Circle(radius=1.0), inner=Circle(radius=0.3))


class TestPerturbationField:
    def test_evaluation(self):
        f = PerturbationField(radial=0.5, cos_coeffs=(0.0, 1.0), sin_coeffs=(0.0, 0.0))
        assert f(0.0) == pytest.approx(1.5)
        assert f(np.pi / 2) == pytest.approx(-0.5)

    def test_mismatched_coefficient_lengths_rejected(self):
        with pytest.raises(GeometryError):
            PerturbationField(cos_coeffs=(1.0,), sin_coeffs=())
